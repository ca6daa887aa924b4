package main

import (
	"encoding/json"
	"math/rand"
)

// Inputs are made from the seed with math/rand, not with the program's own
// generator, so a change to the program cannot change what it is fed. The
// program receives only these values (and the seed of its model
// initialisation, which is the program's to interpret).

const (
	imageSide  = 28
	imageVol   = imageSide * imageSide
	numClasses = 10
	poolSize   = 64
)

// Seed offsets, so that no two generators of a run share a stream.
const (
	seedPool = iota + 1
	seedDataset
	seedSampler
	seedCaller
)

func rngFor(seed uint64, offset, index int) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)*1000 + int64(offset)*100 + int64(index)))
}

// genPool makes the request pool: poolSize single-row 1×28×28 inputs.
func genPool(seed uint64) [][]float32 {
	rng := rngFor(seed, seedPool, 0)
	pool := make([][]float32, poolSize)
	for i := range pool {
		row := make([]float32, imageVol)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		pool[i] = row
	}
	return pool
}

// dataset is a learnable classification task: one random prototype per
// class, samples are their class prototype plus Gaussian noise. It
// implements d500.Dataset.
type dataset struct {
	data   []float32
	labels []int
}

func genDataset(seed uint64, n int) *dataset {
	rng := rngFor(seed, seedDataset, 0)
	protos := make([]float32, numClasses*imageVol)
	for i := range protos {
		protos[i] = float32(rng.NormFloat64())
	}
	d := &dataset{data: make([]float32, n*imageVol), labels: make([]int, n)}
	for i := 0; i < n; i++ {
		c := i % numClasses
		d.labels[i] = c
		for j := 0; j < imageVol; j++ {
			d.data[i*imageVol+j] = protos[c*imageVol+j] + 0.5*float32(rng.NormFloat64())
		}
	}
	return d
}

func (d *dataset) Len() int           { return len(d.labels) }
func (d *dataset) SampleShape() []int { return []int{1, imageSide, imageSide} }
func (d *dataset) Read(i int, dst []float32) int {
	copy(dst, d.data[i*imageVol:(i+1)*imageVol])
	return d.labels[i]
}

// The HTTP wire protocol of POST /v1/infer, written out here because the
// benchmark speaks it from outside.
type wireTensor struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

type wireRequest struct {
	Feeds map[string]wireTensor `json:"feeds"`
}

type wireResponse struct {
	Outputs map[string]wireTensor `json:"outputs"`
}

// encodeRequest is the client's encode step: one pool row as a request body.
func encodeRequest(row []float32) ([]byte, error) {
	return json.Marshal(wireRequest{Feeds: map[string]wireTensor{
		"x": {Shape: []int{1, 1, imageSide, imageSide}, Data: row},
	}})
}
