// Package datagen synthesizes the three image-classification datasets used
// by the study as laptop-scale stand-ins for CIFAR-10, GTSRB, and the
// Pneumonia chest X-ray set (see DESIGN.md §2 for the substitution
// argument).
//
// Each class is defined by a deterministic prototype image (a mixture of
// Gaussian bumps drawn from a per-class random stream). A sample is the
// class prototype plus three perturbations whose strengths differentiate
// the datasets:
//
//   - clutter: structured background blobs shared across classes, strong in
//     the CIFAR-10-like set (the paper attributes CIFAR-10's higher AD to
//     background objects), weak in the GTSRB-like set (signs are centred);
//   - pixel noise: white Gaussian noise;
//   - shift: small random translation.
//
// All generation is deterministic given the config seed.
package datagen

import (
	"fmt"
	"math"

	"tdfm/internal/data"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// Config parameterizes a synthetic dataset.
type Config struct {
	Name       string
	NumClasses int
	Channels   int
	Height     int
	Width      int
	TrainN     int
	TestN      int

	Signal  float64 // prototype amplitude
	Clutter float64 // background-blob amplitude
	Noise   float64 // white-noise std
	Shift   int     // max |translation| in pixels

	Seed uint64
}

// Validate returns an error if the configuration is not generatable.
func (c Config) Validate() error {
	switch {
	case c.NumClasses < 2:
		return fmt.Errorf("datagen: %s: need >=2 classes, got %d", c.Name, c.NumClasses)
	case c.Channels < 1 || c.Height < 4 || c.Width < 4:
		return fmt.Errorf("datagen: %s: image dims %dx%dx%d too small", c.Name, c.Channels, c.Height, c.Width)
	case c.TrainN < c.NumClasses || c.TestN < c.NumClasses:
		return fmt.Errorf("datagen: %s: need >= %d train and test samples", c.Name, c.NumClasses)
	case c.Signal <= 0:
		return fmt.Errorf("datagen: %s: signal must be positive", c.Name)
	case c.Noise < 0 || c.Clutter < 0 || c.Shift < 0:
		return fmt.Errorf("datagen: %s: negative perturbation", c.Name)
	}
	return nil
}

// bump is one Gaussian component of a class prototype or clutter pattern.
type bump struct {
	cy, cx    float64
	sigma     float64
	amplitude float64
	chWeight  []float64
}

func drawBumps(rng *xrand.RNG, n, channels int, h, w float64) []bump {
	bumps := make([]bump, n)
	for i := range bumps {
		chw := make([]float64, channels)
		for c := range chw {
			chw[c] = rng.Uniform(-1, 1)
		}
		bumps[i] = bump{
			cy:        rng.Uniform(0.15, 0.85) * h,
			cx:        rng.Uniform(0.15, 0.85) * w,
			sigma:     rng.Uniform(0.08, 0.25) * math.Min(h, w),
			amplitude: rng.Uniform(0.5, 1.0) * sign(rng.Uniform(-1, 1)),
			chWeight:  chw,
		}
	}
	return bumps
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

func renderBumps(dst []float64, bumps []bump, channels, h, w int, scale float64, dy, dx float64) {
	for _, b := range bumps {
		inv := 1 / (2 * b.sigma * b.sigma)
		for ch := 0; ch < channels; ch++ {
			amp := scale * b.amplitude * b.chWeight[ch]
			if amp == 0 {
				continue
			}
			base := ch * h * w
			for y := 0; y < h; y++ {
				ddy := float64(y) - (b.cy + dy)
				for x := 0; x < w; x++ {
					ddx := float64(x) - (b.cx + dx)
					dst[base+y*w+x] += float64(amp * math.Exp(-(float64(ddy*ddy)+float64(ddx*ddx))*inv))
				}
			}
		}
	}
}

// Generator produces samples for one synthetic dataset.
type Generator struct {
	cfg        Config
	prototypes [][]bump
}

// NewGenerator builds the per-class prototypes for the config.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	protoRNG := xrand.New(cfg.Seed).Split("prototypes")
	protos := make([][]bump, cfg.NumClasses)
	for k := range protos {
		// 3-5 bumps per class; class identity lives in their placement.
		classRNG := protoRNG.Split(fmt.Sprintf("class-%d", k))
		protos[k] = drawBumps(classRNG, 3+classRNG.IntN(3), cfg.Channels,
			float64(cfg.Height), float64(cfg.Width))
	}
	return &Generator{cfg: cfg, prototypes: protos}, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Sample renders one image of the given class into a fresh buffer using the
// provided stream for perturbations.
func (g *Generator) Sample(class int, rng *xrand.RNG) []float64 {
	c := g.cfg
	buf := make([]float64, c.Channels*c.Height*c.Width)
	dy := float64(0)
	dx := float64(0)
	if c.Shift > 0 {
		dy = float64(rng.IntN(2*c.Shift+1) - c.Shift)
		dx = float64(rng.IntN(2*c.Shift+1) - c.Shift)
	}
	renderBumps(buf, g.prototypes[class], c.Channels, c.Height, c.Width, c.Signal, dy, dx)
	if c.Clutter > 0 {
		clutter := drawBumps(rng, 2, c.Channels, float64(c.Height), float64(c.Width))
		renderBumps(buf, clutter, c.Channels, c.Height, c.Width, c.Clutter, 0, 0)
	}
	if c.Noise > 0 {
		for i := range buf {
			buf[i] += rng.Normal(0, c.Noise)
		}
	}
	return buf
}

// dataset renders n samples with balanced classes (round-robin) shuffled by
// the stream.
func (g *Generator) dataset(n int, rng *xrand.RNG, tag string) *data.Dataset {
	c := g.cfg
	x := tensor.New(n, c.Channels, c.Height, c.Width)
	labels := make([]int, n)
	ss := c.Channels * c.Height * c.Width
	order := rng.Perm(n)
	for i := 0; i < n; i++ {
		class := i % c.NumClasses
		row := order[i]
		copy(x.Data()[row*ss:(row+1)*ss], g.Sample(class, rng))
		labels[row] = class
	}
	return data.MustNew(c.Name+"/"+tag, x, labels, c.NumClasses)
}

// Generate renders the train and test splits. Train and test use disjoint
// random streams derived from the config seed.
func (g *Generator) Generate() (train, test *data.Dataset) {
	root := xrand.New(g.cfg.Seed)
	_ = root.Split("prototypes") // keep stream layout in sync with NewGenerator
	trainRNG := root.Split("train")
	testRNG := root.Split("test")
	return g.dataset(g.cfg.TrainN, trainRNG, "train"), g.dataset(g.cfg.TestN, testRNG, "test")
}

// Scale selects the size tier of a preset dataset: how many samples are
// rendered relative to the paper's originals.
type Scale int

// Size tiers. Tiny is for unit tests, Small for the default harness and
// benchmarks, Medium for higher-fidelity runs.
const (
	ScaleTiny Scale = iota + 1
	ScaleSmall
	ScaleMedium
)

func (s Scale) factor() int {
	switch s {
	case ScaleTiny:
		return 1
	case ScaleSmall:
		return 3
	case ScaleMedium:
		return 8
	default:
		panic(fmt.Sprintf("datagen: unknown scale %d", s))
	}
}

// CIFAR10Like returns the CIFAR-10 stand-in: 10 classes, RGB, heavy
// background clutter. Train/test sizes keep the paper's 5:1 ratio.
func CIFAR10Like(scale Scale, seed uint64) Config {
	f := scale.factor()
	return Config{
		Name:       "cifar10like",
		NumClasses: 10,
		Channels:   3, Height: 12, Width: 12,
		TrainN: 200 * f, TestN: 50 * f,
		Signal:  1.0,
		Clutter: 1.15,
		Noise:   0.50,
		Shift:   1,
		Seed:    seed,
	}
}

// GTSRBLike returns the GTSRB stand-in: 43 classes, RGB, centred
// high-contrast "signs" with little clutter.
func GTSRBLike(scale Scale, seed uint64) Config {
	f := scale.factor()
	return Config{
		Name:       "gtsrblike",
		NumClasses: 43,
		Channels:   3, Height: 12, Width: 12,
		TrainN: 301 * f, TestN: 86 * f,
		Signal:  1.6,
		Clutter: 0.20,
		Noise:   0.25,
		Shift:   1,
		Seed:    seed,
	}
}

// PneumoniaLike returns the Pneumonia stand-in: 2 classes, greyscale,
// diffuse texture, roughly a tenth the size of the other sets (the paper
// stresses the difficulty of collecting medical data).
func PneumoniaLike(scale Scale, seed uint64) Config {
	f := scale.factor()
	return Config{
		Name:       "pneumonialike",
		NumClasses: 2,
		Channels:   1, Height: 12, Width: 12,
		TrainN: 80 * f, TestN: 50 * f,
		Signal:  0.85,
		Clutter: 0.70,
		Noise:   0.50,
		Shift:   1,
		Seed:    seed,
	}
}

// Presets returns the three study datasets at the given scale, keyed by the
// names used throughout the experiment harness.
func Presets(scale Scale, seed uint64) map[string]Config {
	return map[string]Config{
		"cifar10like":   CIFAR10Like(scale, seed),
		"gtsrblike":     GTSRBLike(scale, seed),
		"pneumonialike": PneumoniaLike(scale, seed),
	}
}

// Generate is a convenience wrapper building a generator and rendering both
// splits.
func Generate(cfg Config) (train, test *data.Dataset, err error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, nil, err
	}
	train, test = g.Generate()
	return train, test, nil
}

// GTZANLike returns a stand-in for the GTZAN music-genre dataset whose
// fault census motivated the paper's fault taxonomy (§I, Sturm 2013):
// 10 genres, single-channel 12×16 "spectrogram" patches (frequency ×
// time), banded texture rather than centred objects. The paper's future
// work proposes expanding the evaluation beyond images; this preset
// exercises exactly that path — the substrate is input-layout agnostic, so
// every TDFM technique runs on it unchanged.
func GTZANLike(scale Scale, seed uint64) Config {
	f := scale.factor()
	return Config{
		Name:       "gtzanlike",
		NumClasses: 10,
		Channels:   1, Height: 12, Width: 16,
		TrainN: 200 * f, TestN: 50 * f,
		Signal:  1.1,
		Clutter: 0.55,
		Noise:   0.40,
		Shift:   2, // genres are translation-tolerant along time
		Seed:    seed,
	}
}
