package core

import (
	"math"
	"testing"

	"tdfm/internal/loss"
	"tdfm/internal/models"
	"tdfm/internal/nn"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// TestTrainingPooledMatchesUnpooled is the byte-identity property behind
// the whole arena design (DESIGN.md §10): training with arena reuse
// produces bit-for-bit the same model — observed through its test-set
// probabilities — as the reference allocate-per-call path (the nil
// arena), for every study architecture. Each run builds and trains as
// Baseline.Train does, with the mode under test installed in place of
// the built network's arena. Zero-filled handouts match fresh
// allocations, and the pooled run's arena is poisoned, filling every
// write-once handout with NaN: a layer that read a write-once element
// before writing it would turn the pooled probabilities NaN, while the
// unpooled run's handouts are plain zeros.
func TestTrainingPooledMatchesUnpooled(t *testing.T) {
	train, test := tinySet(t)
	for _, arch := range models.StudyModels() {
		t.Run(arch, func(t *testing.T) {
			cfg := Config{Arch: arch, Epochs: 2, BatchSize: 32, LR: 0.01}
			run := func(arena *tensor.Arena) []float64 {
				rng := xrand.New(11)
				c, bm, err := cfg.buildFor(train, rng.Split("init"))
				if err != nil {
					t.Fatal(err)
				}
				nn.InstallArena(bm.net, arena)
				if err := trainLoop(bm.net, train, loss.CrossEntropy{}, cfg, rng.Split("train"), nil, nil); err != nil {
					t.Fatalf("pooled=%v: %v", arena != nil, err)
				}
				probs := c.PredictProbs(test.X)
				return append([]float64(nil), probs.Data()...)
			}

			on, off := run(tensor.NewPoisonArena()), run(nil)
			if len(on) != len(off) {
				t.Fatalf("probability counts differ: %d vs %d", len(on), len(off))
			}
			for i := range on {
				if math.Float64bits(on[i]) != math.Float64bits(off[i]) {
					t.Fatalf("probs[%d] differ: pooled %v vs unpooled %v (not bit-identical)", i, on[i], off[i])
				}
			}
		})
	}
}

// TestEvalForwardRecyclesDeadActivations pins early recycling in
// inference forwards (nn.Sequential.Forward) for every study
// architecture. A fresh arena can serve a hit only by reissuing storage
// that an earlier layer of the same pass has finished with, so one
// 32-row forward must score hits. Without recycling every handout of a
// cold pass is a miss.
func TestEvalForwardRecyclesDeadActivations(t *testing.T) {
	const h, w = 8, 8
	x := tensor.New(32, 1, h, w)
	for i := range x.Data() {
		x.Data()[i] = float64(i%13)/13 - 0.5
	}
	for _, arch := range models.StudyModels() {
		t.Run(arch, func(t *testing.T) {
			net, err := models.Build(arch, models.BuildConfig{
				InChannels: 1, Height: h, Width: w, NumClasses: 3,
				WidthMult: 0.25, RNG: xrand.New(7).Split(arch),
			})
			if err != nil {
				t.Fatal(err)
			}
			nn.InstallArena(net, tensor.NewArena())
			before := tensor.Stats()
			net.Forward(x, false)
			if s := tensor.Stats(); s.Hits == before.Hits {
				t.Fatalf("cold 32-row inference forward reused no storage (%v): dead activations were not recycled", s)
			}
		})
	}
}

// TestBackwardParamsMatchesBackward pins the training loops' backward
// (nn.Sequential.BackwardParams, which skips the first layer's input
// gradient) to the full Backward on every study architecture and on
// label correction's Dense-first secondary network: each parameter
// gradient must be bit-identical. Each network runs on a poisoned arena,
// whose write-once handouts arrive NaN-filled, so a skipped computation
// that some gradient still read would show as NaN.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	const h, w, classes = 8, 8, 3
	fill := func(x *tensor.Tensor, mod int, shift float64) *tensor.Tensor {
		for i := range x.Data() {
			x.Data()[i] = float64(i%mod)/float64(mod) - shift
		}
		return x
	}
	images := fill(tensor.New(16, 1, h, w), 13, 0.5)
	type netCase struct {
		name  string
		x     *tensor.Tensor
		build func(t *testing.T) *nn.Sequential
	}
	var cases []netCase
	for _, arch := range models.StudyModels() {
		cases = append(cases, netCase{arch, images, func(t *testing.T) *nn.Sequential {
			net, err := models.Build(arch, models.BuildConfig{
				InChannels: 1, Height: h, Width: w, NumClasses: classes,
				WidthMult: 0.25, RNG: xrand.New(7).Split(arch),
			})
			if err != nil {
				t.Fatal(err)
			}
			return net
		}})
	}
	cases = append(cases, netCase{"lc-secondary", fill(tensor.New(16, 2*classes), 11, 0.4), func(*testing.T) *nn.Sequential {
		return newSecondary(classes, 8, xrand.New(7).Split("secondary")).net
	}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			grads := func(full bool) [][]float64 {
				net := c.build(t)
				nn.InstallArena(net, tensor.NewPoisonArena())
				logits := net.Forward(c.x, true)
				dout := fill(tensor.NewLike(logits), 7, 0.3)
				if full {
					net.Backward(dout)
				} else {
					net.BackwardParams(dout)
				}
				var out [][]float64
				for _, p := range net.Params() {
					out = append(out, append([]float64(nil), p.Grad.Data()...))
				}
				return out
			}
			full, params := grads(true), grads(false)
			for i := range full {
				for j := range full[i] {
					if math.Float64bits(full[i][j]) != math.Float64bits(params[i][j]) {
						t.Fatalf("param %d grad[%d]: BackwardParams %v, Backward %v", i, j, params[i][j], full[i][j])
					}
				}
			}
		})
	}
}
