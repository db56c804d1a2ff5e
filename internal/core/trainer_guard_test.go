package core

import (
	"context"
	"errors"
	"testing"

	"tdfm/internal/chaos"
	"tdfm/internal/data"
	"tdfm/internal/loss"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

func TestTrainLoopRecoversFromTransientNaN(t *testing.T) {
	train, test := tinySet(t)
	cfg := fastConfig()
	cfg.Tag = "guard-test-cell"

	// Clean reference run.
	ref, err := Baseline{}.Train(cfg, TrainSet{Data: train}, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	refPred := ref.Predict(test.X)

	// One injected NaN on the first batch: attempt 0 diverges, the recovery
	// attempt must run clean and return a working classifier.
	run := func() []int {
		chaos.Reset()
		defer chaos.Reset()
		chaos.Arm("core.trainLoop.loss", cfg.Tag, chaos.Action{NaN: true, Times: 1})
		c, err := Baseline{}.Train(cfg, TrainSet{Data: train}, xrand.New(21))
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		if chaos.Firings() != 1 {
			t.Fatalf("fault fired %d times, want 1", chaos.Firings())
		}
		return c.Predict(test.X)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("recovered training is not deterministic across runs")
		}
	}
	// The recovered run restarts from the same initial weights with a fresh
	// shuffle stream and backed-off LR — it must differ from the attempt-0
	// stream only through that recovery path, and still produce predictions
	// for every test sample.
	if len(a) != len(refPred) {
		t.Fatalf("recovered run predicted %d samples, clean run %d", len(a), len(refPred))
	}
}

// TestTrainLoopRecoveryReusesArena pins the arena reset on a diverged
// attempt: after an injected NaN loss on the first batch, the recovery
// attempt's first batch draws every buffer from the arena's freelists,
// so the pool records no miss between the two batches' targets.
func TestTrainLoopRecoveryReusesArena(t *testing.T) {
	old := tensor.PoolingEnabled()
	tensor.SetPooling(true)
	defer tensor.SetPooling(old)
	train, _ := tinySet(t)
	cfg := fastConfig()
	cfg.Epochs = 1
	cfg.Tag = "arena-reuse-cell"
	chaos.Reset()
	defer chaos.Reset()
	chaos.Arm("core.trainLoop.loss", cfg.Tag, chaos.Action{NaN: true, Times: 1})
	_, bm, err := cfg.buildFor(train, xrand.New(31))
	if err != nil {
		t.Fatal(err)
	}
	// Each batch's targets come after its forward pass; record the miss
	// count once they are allocated.
	var misses []uint64
	targets := func(_ *tensor.Tensor, labels []int) *tensor.Tensor {
		y := data.FillOneHot(bm.net.Arena().Tensor(len(labels), train.NumClasses), labels)
		misses = append(misses, tensor.Stats().Misses)
		return y
	}
	if err := trainLoop(bm.net, train, loss.CrossEntropy{}, cfg, xrand.New(32), targets, nil); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if chaos.Firings() != 1 || len(misses) < 2 {
		t.Fatalf("fault fired %d times over %d batches, want 1 firing and at least 2 batches", chaos.Firings(), len(misses))
	}
	if d := misses[1] - misses[0]; d != 0 {
		t.Fatalf("recovery attempt's first batch added %d pool misses, want 0 (diverged attempt's buffers not recycled)", d)
	}
}

func TestTrainLoopPersistentDivergenceReturnsErrDiverged(t *testing.T) {
	train, _ := tinySet(t)
	cfg := fastConfig()
	cfg.Tag = "diverge-forever"
	chaos.Reset()
	defer chaos.Reset()
	// Every attempt's loss is corrupted, so recovery must exhaust and the
	// run must be declared divergent.
	chaos.Arm("core.trainLoop.loss", cfg.Tag, chaos.Action{NaN: true})
	_, err := Baseline{}.Train(cfg, TrainSet{Data: train}, xrand.New(23))
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	// One firing per attempt: initial + maxRecoveries restarts.
	if got, want := chaos.Firings(), 1+maxRecoveries; got != want {
		t.Fatalf("fault fired %d times, want %d (one per attempt)", got, want)
	}
}

func TestTrainLoopInjectedPanicPropagates(t *testing.T) {
	train, _ := tinySet(t)
	cfg := fastConfig()
	cfg.Tag = "panic-cell"
	chaos.Reset()
	defer chaos.Reset()
	chaos.Arm("core.trainLoop.loss", cfg.Tag, chaos.Action{Panic: true, Times: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("injected panic did not propagate out of trainLoop")
		}
	}()
	Baseline{}.Train(cfg, TrainSet{Data: train}, xrand.New(25)) //nolint:errcheck
}

func TestTrainLoopCancelledContext(t *testing.T) {
	train, _ := tinySet(t)
	cfg := fastConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	_, err := Baseline{}.Train(cfg, TrainSet{Data: train}, xrand.New(27))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTrainLoopChaosScopedByTag(t *testing.T) {
	train, _ := tinySet(t)
	cfg := fastConfig()
	cfg.Tag = "cell-A"
	chaos.Reset()
	defer chaos.Reset()
	// A fault armed for a different cell must not fire for this one.
	chaos.Arm("core.trainLoop.loss", "cell-B", chaos.Action{NaN: true})
	if _, err := (Baseline{}).Train(cfg, TrainSet{Data: train}, xrand.New(29)); err != nil {
		t.Fatalf("unrelated fault disturbed training: %v", err)
	}
	if chaos.Firings() != 0 {
		t.Fatalf("fault for cell-B fired %d times against cell-A", chaos.Firings())
	}
}
