package p

// Dead is exported and nothing calls it.
func Dead() {}

// TestOnly is exported and only a test calls it.
func TestOnly() {}

// Live is called from cmd/app.
func Live() {}

// T is used from cmd/app.
type T struct{}

// MarshalJSON satisfies json.Marshaler; nothing names it.
func (T) MarshalJSON() ([]byte, error) { return nil, nil }

// Mode enumerates with iota; cmd/app names only ModeA.
type Mode int

const (
	ModeA Mode = iota
	ModeB
)
