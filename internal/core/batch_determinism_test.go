package core

// The serving tier answers a multi-row request with one forward pass, and
// each row must get the answer it would get sent alone; that is only
// sound if inference is batch-invariant at the bit level. This test pins
// the contract for every study architecture: PredictProbs over any
// chunking of the same rows — per-example, batch 3, the full batch —
// produces byte-identical probabilities at every tested worker count.
// Each network runs on an arena, as built models do, with every
// write-once handout filled with NaN (tensor.SetPoisonWriteOnce): a layer
// that read a write-once element before writing it would turn the
// probabilities NaN.

import (
	"math"
	"testing"

	"tdfm/internal/models"
	"tdfm/internal/nn"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

func TestPredictProbsBatchInvariantAcrossModels(t *testing.T) {
	const (
		n, classes = 17, 3
		h, w       = 8, 8
	)
	oldPar := tensor.Parallelism()
	defer tensor.SetParallelism(oldPar)
	oldPool := tensor.PoolingEnabled()
	defer tensor.SetPooling(oldPool)
	tensor.SetPooling(true)
	tensor.SetPoisonWriteOnce(true)
	defer tensor.SetPoisonWriteOnce(false)

	// One fixed 17-row input, deterministic but not uniform.
	x := tensor.New(n, 1, h, w)
	for i := range x.Data() {
		x.Data()[i] = float64(i%13)/13 - 0.5
	}

	for _, arch := range models.StudyModels() {
		arch := arch
		t.Run(arch, func(t *testing.T) {
			net, err := models.Build(arch, models.BuildConfig{
				InChannels: 1, Height: h, Width: w, NumClasses: classes,
				WidthMult: 0.25, RNG: xrand.New(7).Split(arch),
			})
			if err != nil {
				t.Fatal(err)
			}
			nn.InstallArena(net, tensor.NewArena())
			m := &builtModel{net: net, classes: classes}

			// Reference: strict per-example loop at a single worker.
			tensor.SetParallelism(1)
			ref := make([]float64, 0, n*classes)
			for i := 0; i < n; i++ {
				ref = append(ref, m.PredictProbs(x.SliceRows(i, i+1)).Data()...)
			}
			for j, p := range ref {
				if math.IsNaN(p) {
					t.Fatalf("probs[%d] is NaN: a layer read a write-once element it had not written", j)
				}
			}

			for _, par := range []int{1, 4} {
				tensor.SetParallelism(par)
				for _, bs := range []int{1, 3, 17} {
					got := make([]float64, 0, n*classes)
					for start := 0; start < n; start += bs {
						end := start + bs
						if end > n {
							end = n
						}
						got = append(got, m.PredictProbs(x.SliceRows(start, end)).Data()...)
					}
					if len(got) != len(ref) {
						t.Fatalf("batch %d workers %d: %d probs, want %d", bs, par, len(got), len(ref))
					}
					for j := range got {
						if math.Float64bits(got[j]) != math.Float64bits(ref[j]) {
							t.Fatalf("batch %d workers %d: probs[%d] = %v, per-example = %v (not bit-identical)",
								bs, par, j, got[j], ref[j])
						}
					}
				}
			}
		})
	}
}
