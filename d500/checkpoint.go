package d500

import (
	"errors"
	"fmt"

	"deep500/internal/graph"
)

// Checkpointing: the public wrapping of the internal D5NX binary format,
// so binaries and consumers can persist trained weights and serve them
// later without importing internal/graph.
//
// A D5NX checkpoint is the whole model — graph structure plus parameter
// tensors — in a deterministic binary encoding (same model, same bytes),
// so a train → Save → Load → serve pipeline reproduces inference exactly.

// Save writes the session's open model — including its current, possibly
// trained, parameter tensors — to path in the D5NX binary format. The
// saved graph is the model as opened; parameter mutations from training
// are captured because executors reference the model's tensors rather than
// copying them.
func (s *Session) Save(path string) error {
	if s.model == nil {
		return errNotOpen
	}
	if err := graph.Save(s.model, path); err != nil {
		return fmt.Errorf("d500: saving model %q: %w", s.model.Name, err)
	}
	return nil
}

// Load reads a D5NX model checkpoint written by Session.Save (or the
// internal graph.Save). The loaded model is ready for Session.Open or
// NewServer.
func Load(path string) (*graph.Model, error) {
	if path == "" {
		return nil, errors.New("d500: Load requires a path")
	}
	m, err := graph.Load(path)
	if err != nil {
		return nil, fmt.Errorf("d500: loading model from %s: %w", path, err)
	}
	return m, nil
}
