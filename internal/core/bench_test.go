package core

import (
	"testing"

	"tdfm/internal/data"
	"tdfm/internal/datagen"
	"tdfm/internal/loss"
	"tdfm/internal/nn"
	"tdfm/internal/xrand"
)

// benchSet builds a small deterministic training set for the training-loop
// benchmarks (the EXPERIMENTS.md allocation-trajectory walkthrough quotes
// their allocs/op and B/op columns).
func benchSet(b *testing.B) *data.Dataset {
	b.Helper()
	train, _, err := datagen.Generate(datagen.Config{
		Name: "bench", NumClasses: 4, Channels: 1, Height: 12, Width: 12,
		TrainN: 128, TestN: 8, Signal: 1.5, Clutter: 0.2, Noise: 0.25, Shift: 1, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	return train
}

// benchTrain runs four-epoch training iterations on a prebuilt convnet,
// on its built arena (pooled) or the nil arena. One op is one full trainLoop
// call — the unit real experiment cells pay for — so per-run fixed costs
// (weight snapshot, optimizer state) amortize over epochs exactly as
// they do in the grid runner.
func benchTrain(b *testing.B, pooled bool) {
	train := benchSet(b)
	cfg := Config{Arch: "convnet", Epochs: 4, BatchSize: 32, LR: 0.01}
	_, bm, err := cfg.buildFor(train, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	if !pooled {
		nn.InstallArena(bm.net, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trainLoop(bm.net, train, loss.CrossEntropy{}, cfg, xrand.New(uint64(i)+2), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocTrain tracks the training loop's allocation rate with
// arena reuse on versus off (run with -benchmem; the
// allocs/op and B/op columns are the point of this benchmark).
func BenchmarkAllocTrain(b *testing.B) {
	b.Run("pooled", func(b *testing.B) { benchTrain(b, true) })
	b.Run("unpooled", func(b *testing.B) { benchTrain(b, false) })
}
