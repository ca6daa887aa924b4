package serve

import (
	"encoding/json"
	"testing"

	"deep500/internal/tensor"
)

// BenchmarkDecodeFeeds measures the /v1/infer request decoder on one LeNet
// row (784 floats, the body the repository benchmark's client sends)
// against the strict encoding/json decode it replaced, validation included
// on both sides. CI runs it once as a smoke test.
func BenchmarkDecodeFeeds(b *testing.B) {
	body := lenetRowBody(b)
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parseFeeds(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			feeds, err := strictFeeds(body)
			if err != nil {
				b.Fatal(err)
			}
			for _, tj := range feeds {
				_ = tensor.From(tj.Data, tj.Shape...)
			}
		}
	})
}

// lenetRowBody is BenchmarkDecodeFeeds' request: one LeNet row of 784
// standard-normal values, as encoding/json marshals them.
func lenetRowBody(tb testing.TB) []byte {
	data := make([]float32, 784)
	rng := tensor.NewRNG(1)
	for i := range data {
		data[i] = float32(rng.Norm())
	}
	body, err := json.Marshal(map[string]any{"feeds": map[string]TensorJSON{
		"x": {Shape: []int{1, 1, 28, 28}, Data: data},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}
