// Package datasets implements the dataset substrate of Deep500-Go's
// Level 2/3 evaluation (paper §V-D, Fig. 8 and Table III): deterministic
// synthetic image generation at the paper's dataset shapes, three storage
// containers (raw binary ≈ MNIST ubyte, CRC-framed record files ≈
// TFRecord, indexed POSIX tar), real JPEG encoding/decoding through the Go
// standard library with two pipelines (sequential "basic" ≈ PIL and a
// parallel worker pool ≈ libjpeg-turbo), pseudo-shuffle buffering, and
// sharded storage for distributed loading experiments.
package datasets

import (
	"bytes"
	"fmt"
	"image"
	"image/jpeg"
	"math"

	"deep500/internal/tensor"
)

// Spec describes a dataset family at the paper's shapes.
type Spec struct {
	Name    string
	H, W, C int
	Classes int
}

// The dataset specs used throughout the evaluation.
var (
	MNIST        = Spec{Name: "mnist", H: 28, W: 28, C: 1, Classes: 10}
	FashionMNIST = Spec{Name: "fashion-mnist", H: 28, W: 28, C: 1, Classes: 10}
	CIFAR10      = Spec{Name: "cifar-10", H: 32, W: 32, C: 3, Classes: 10}
	CIFAR100     = Spec{Name: "cifar-100", H: 32, W: 32, C: 3, Classes: 100}
	ImageNet     = Spec{Name: "imagenet", H: 224, W: 224, C: 3, Classes: 1000}
)

// PixelBytes returns the raw sample size in bytes.
func (s Spec) PixelBytes() int { return s.H * s.W * s.C }

// GenerateImage produces a deterministic, class-conditional synthetic image
// (HWC uint8). Patterns mix class-dependent sinusoids with per-image phase
// noise, which makes them JPEG-compressible like natural images while being
// fully reproducible.
func GenerateImage(spec Spec, label int, imageSeed uint64) []uint8 {
	rng := tensor.NewRNG(imageSeed ^ 0x9E3779B9)
	img := make([]uint8, spec.PixelBytes())
	fx := 1 + float64(label%7)
	fy := 1 + float64((label/7)%5)
	phase := rng.Float64() * 2 * math.Pi
	amp := 80 + 40*rng.Float64()
	for y := 0; y < spec.H; y++ {
		for x := 0; x < spec.W; x++ {
			base := amp * math.Sin(2*math.Pi*fx*float64(x)/float64(spec.W)+phase) *
				math.Cos(2*math.Pi*fy*float64(y)/float64(spec.H))
			for c := 0; c < spec.C; c++ {
				v := 128 + base*(1-0.2*float64(c)) + 8*rng.Norm()
				if v < 0 {
					v = 0
				}
				if v > 255 {
					v = 255
				}
				img[(y*spec.W+x)*spec.C+c] = uint8(v)
			}
		}
	}
	return img
}

// EncodeJPEG compresses an HWC uint8 image to JPEG bytes (quality 85,
// roughly ImageNet-like file sizes).
func EncodeJPEG(spec Spec, pixels []uint8) ([]byte, error) {
	var src image.Image
	if spec.C == 1 {
		g := image.NewGray(image.Rect(0, 0, spec.W, spec.H))
		copy(g.Pix, pixels)
		src = g
	} else {
		rgba := image.NewRGBA(image.Rect(0, 0, spec.W, spec.H))
		for i := 0; i < spec.H*spec.W; i++ {
			rgba.Pix[i*4] = pixels[i*3]
			rgba.Pix[i*4+1] = pixels[i*3+1]
			rgba.Pix[i*4+2] = pixels[i*3+2]
			rgba.Pix[i*4+3] = 255
		}
		src = rgba
	}
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, src, &jpeg.Options{Quality: 85}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeJPEG decompresses JPEG bytes into HWC uint8 pixels for the spec.
func DecodeJPEG(spec Spec, data []byte) ([]uint8, error) {
	img, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	b := img.Bounds()
	if b.Dx() != spec.W || b.Dy() != spec.H {
		return nil, fmt.Errorf("datasets: decoded %dx%d, want %dx%d", b.Dx(), b.Dy(), spec.W, spec.H)
	}
	out := make([]uint8, spec.PixelBytes())
	for y := 0; y < spec.H; y++ {
		for x := 0; x < spec.W; x++ {
			r, g, bl, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			if spec.C == 1 {
				out[y*spec.W+x] = uint8(r >> 8)
			} else {
				out[(y*spec.W+x)*3] = uint8(r >> 8)
				out[(y*spec.W+x)*3+1] = uint8(g >> 8)
				out[(y*spec.W+x)*3+2] = uint8(bl >> 8)
			}
		}
	}
	return out, nil
}

// SynthBatch allocates and generates a synthetic minibatch directly in
// memory — the "Synth" generator baseline of Fig. 8 (no storage, no
// decode; just allocation plus pseudo-random fill).
func SynthBatch(spec Spec, batch int, seed uint64) (*tensor.Tensor, []int) {
	rng := tensor.NewRNG(seed)
	x := tensor.New(batch, spec.C, spec.H, spec.W)
	d := x.Data()
	for i := range d {
		d[i] = rng.Float32()
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(spec.Classes)
	}
	return x, labels
}
