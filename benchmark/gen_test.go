package main

import (
	"bytes"
	"reflect"
	"testing"
)

// The same seed must give the same inputs, byte for byte: request bodies,
// dataset and model initialisation.
func TestSeedDeterminism(t *testing.T) {
	bodies := func(seed uint64) []byte {
		var all []byte
		for _, row := range genPool(seed) {
			body, err := encodeRequest(row)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, body...)
		}
		return all
	}
	if !bytes.Equal(bodies(7), bodies(7)) {
		t.Error("request bodies differ between two generations from one seed")
	}
	if bytes.Equal(bodies(7), bodies(8)) {
		t.Error("request bodies do not depend on the seed")
	}

	a, b, c := genDataset(7, 64), genDataset(7, 64), genDataset(8, 64)
	if !reflect.DeepEqual(a, b) {
		t.Error("dataset differs between two generations from one seed")
	}
	if reflect.DeepEqual(a.data, c.data) {
		t.Error("dataset does not depend on the seed")
	}
	buf := make([]float32, imageVol)
	if label := a.Read(13, buf); label != 13%numClasses || buf[5] != a.data[13*imageVol+5] {
		t.Errorf("Read(13) gave label %d and a row that is not row 13", label)
	}

	builders := map[string]func(seed uint64) *Model{
		"lenet":      func(seed uint64) *Model { return buildLeNet(seed, false) },
		"lenet+head": func(seed uint64) *Model { return buildLeNet(seed, true) },
		"mlp":        func(seed uint64) *Model { return buildMLP(seed, true, 512, 512) },
	}
	for name, build := range builders {
		if !bytes.Equal(initBytes(build(7)), initBytes(build(7))) {
			t.Errorf("%s: initial parameters differ between two builds from one seed", name)
		}
		if bytes.Equal(initBytes(build(7)), initBytes(build(8))) {
			t.Errorf("%s: initial parameters do not depend on the seed", name)
		}
	}
}

// kernels.flops_per_row is exact; LeNet's is small enough to do by hand.
func TestFlopsPerRowLeNet(t *testing.T) {
	const (
		conv1 = 2 * 6 * 28 * 28 * 1 * 5 * 5
		conv2 = 2 * 16 * 10 * 10 * 6 * 5 * 5
		dense = 2 * (400*120 + 120*84 + 84*10)
	)
	got, err := flopsPerRow(buildLeNet(1, false))
	if err != nil {
		t.Fatal(err)
	}
	if got != conv1+conv2+dense {
		t.Errorf("flopsPerRow(LeNet) = %d, want %d", got, conv1+conv2+dense)
	}
	withHead, err := flopsPerRow(buildLeNet(1, true))
	if err != nil {
		t.Fatal(err)
	}
	if withHead != got {
		t.Errorf("the training head adds no Gemm or Conv: got %d, want %d", withHead, got)
	}
}

func TestCompare(t *testing.T) {
	ref := map[string][]float32{"y": {1, -2, 0}}
	if err := compare(map[string][]float32{"y": {1.00005, -2.0001, 0.000005}, "extra": {9}}, ref); err != nil {
		t.Errorf("values within rtol 1e-4, atol 1e-5 must pass: %v", err)
	}
	for name, got := range map[string]map[string][]float32{
		"off by 1e-3":    {"y": {1.001, -2, 0}},
		"missing output": {"z": {1, -2, 0}},
		"wrong length":   {"y": {1, -2}},
		"NaN":            {"y": {float32(nan()), -2, 0}},
	} {
		if compare(got, ref) == nil {
			t.Errorf("%s must fail the comparison", name)
		}
	}
}
