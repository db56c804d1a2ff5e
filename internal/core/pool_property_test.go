package core

import (
	"math"
	"testing"

	"tdfm/internal/models"
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
