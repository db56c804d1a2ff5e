package core

import (
	"math"
	"runtime"
	"testing"

	"tdfm/internal/models"
	"tdfm/internal/nn"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// TestTrainingPooledMatchesUnpooled is the byte-identity property behind
// the whole pooling design (DESIGN.md §10): training with the buffer pool
// and arena enabled produces bit-for-bit the same model — observed
// through its test-set probabilities — as the reference allocate-per-call
// path with TDFM_POOL=off, for every study architecture. Zero-filled
// handouts match fresh allocations, and the pooled run fills every
// write-once handout with NaN (tensor.SetPoisonWriteOnce): a layer that
// read a write-once element before writing it would turn the pooled
// probabilities NaN, while the unpooled run's handouts are plain zeros.
func TestTrainingPooledMatchesUnpooled(t *testing.T) {
	train, test := tinySet(t)
	oldPool := tensor.PoolingEnabled()
	defer tensor.SetPooling(oldPool)
	tensor.SetPoisonWriteOnce(true)
	defer tensor.SetPoisonWriteOnce(false)

	for _, arch := range models.StudyModels() {
		t.Run(arch, func(t *testing.T) {
			cfg := Config{Arch: arch, Epochs: 2, BatchSize: 32, LR: 0.01}
			run := func(pooled bool) []float64 {
				tensor.SetPooling(pooled)
				c, err := Baseline{}.Train(cfg, TrainSet{Data: train}, xrand.New(11))
				if err != nil {
					t.Fatalf("pooled=%v: %v", pooled, err)
				}
				probs := c.PredictProbs(test.X)
				return append([]float64(nil), probs.Data()...)
			}

			on, off := run(true), run(false)
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
// architecture. With the global sync.Pool emptied, a fresh arena can
// serve a pool hit only by reissuing storage that an earlier layer of
// the same pass has finished with, so one 32-row forward must score
// hits. Without recycling every handout of a cold pass is a miss.
func TestEvalForwardRecyclesDeadActivations(t *testing.T) {
	const h, w = 8, 8
	oldPool := tensor.PoolingEnabled()
	defer tensor.SetPooling(oldPool)
	tensor.SetPooling(true)
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
			// The first collection moves the pool's buffers to its victim
			// cache, the second drops them.
			runtime.GC()
			runtime.GC()
			tensor.ResetStats()
			net.Forward(x, false)
			if s := tensor.Stats(); s.Hits == 0 {
				t.Fatalf("cold 32-row inference forward reused no storage (%v): dead activations were not recycled", s)
			}
		})
	}
}

// TestBackwardParamsMatchesBackward pins the training loops' backward
// (nn.Sequential.BackwardParams, which skips the first layer's input
// gradient) to the full Backward on every study architecture: each
// parameter gradient must be bit-identical. Write-once handouts arrive
// NaN-poisoned, so a skipped computation that some gradient still read
// would show as NaN.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	const h, w = 8, 8
	oldPool := tensor.PoolingEnabled()
	defer tensor.SetPooling(oldPool)
	tensor.SetPooling(true)
	tensor.SetPoisonWriteOnce(true)
	defer tensor.SetPoisonWriteOnce(false)
	x := tensor.New(16, 1, h, w)
	for i := range x.Data() {
		x.Data()[i] = float64(i%13)/13 - 0.5
	}
	for _, arch := range models.StudyModels() {
		t.Run(arch, func(t *testing.T) {
			grads := func(full bool) [][]float64 {
				net, err := models.Build(arch, models.BuildConfig{
					InChannels: 1, Height: h, Width: w, NumClasses: 3,
					WidthMult: 0.25, RNG: xrand.New(7).Split(arch),
				})
				if err != nil {
					t.Fatal(err)
				}
				nn.InstallArena(net, tensor.NewArena())
				logits := net.Forward(x, true)
				dout := tensor.NewLike(logits)
				for i := range dout.Data() {
					dout.Data()[i] = float64(i%7)/7 - 0.3
				}
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
