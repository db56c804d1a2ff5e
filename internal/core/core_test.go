package core

import (
	"testing"

	"tdfm/internal/data"
	"tdfm/internal/datagen"
	"tdfm/internal/faultinject"
	"tdfm/internal/metrics"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// fastConfig keeps technique tests quick: shallow model, few epochs.
func fastConfig() Config {
	return Config{Arch: "convnet", Epochs: 6, BatchSize: 32, LR: 0.01}
}

// tinySet generates a small learnable dataset shared by the tests.
func tinySet(t *testing.T) (train, test *data.Dataset) {
	t.Helper()
	cfg := datagen.Config{
		Name: "toy", NumClasses: 4, Channels: 1, Height: 12, Width: 12,
		TrainN: 120, TestN: 60, Signal: 1.5, Clutter: 0.2, Noise: 0.25, Shift: 1, Seed: 5,
	}
	train, test, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestRegistryAndOrder(t *testing.T) {
	reg := Registry()
	order := StudyOrder()
	if len(reg) != 6 || len(order) != 6 {
		t.Fatalf("registry %d, order %d", len(reg), len(order))
	}
	for _, name := range order {
		tech, ok := reg[name]
		if !ok {
			t.Fatalf("technique %s missing", name)
		}
		if tech.Name() != name {
			t.Fatalf("technique %s reports name %s", name, tech.Name())
		}
		if tech.Description() == "" {
			t.Fatalf("technique %s has empty description", name)
		}
		if tech.ModelsTrained() < 1 || tech.ModelsAtInference() < 1 {
			t.Fatalf("technique %s has bad overhead metadata", name)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown technique accepted")
	}
}

func TestOverheadMetadataMatchesPaper(t *testing.T) {
	reg := Registry()
	if reg["ens"].ModelsAtInference() != 5 {
		t.Fatal("ensemble must consult 5 models (5x inference overhead, §IV-E)")
	}
	if reg["kd"].ModelsTrained() != 2 {
		t.Fatal("KD trains teacher and student")
	}
	if reg["lc"].ModelsTrained() != 2 {
		t.Fatal("LC trains primary and secondary")
	}
	for _, single := range []string{"base", "ls", "rl", "kd", "lc"} {
		if reg[single].ModelsAtInference() != 1 {
			t.Fatalf("%s must have 1x inference overhead", single)
		}
	}
}

func TestBaselineLearns(t *testing.T) {
	train, test := tinySet(t)
	c, err := Baseline{}.Train(fastConfig(), TrainSet{Data: train}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	acc := metrics.Accuracy(c.Predict(test.X), test.Labels)
	if acc < 0.6 {
		t.Fatalf("baseline accuracy %.2f too low (chance 0.25)", acc)
	}
}

func TestBaselineDeterministic(t *testing.T) {
	train, test := tinySet(t)
	a, err := Baseline{}.Train(fastConfig(), TrainSet{Data: train}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Baseline{}.Train(fastConfig(), TrainSet{Data: train}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Predict(test.X), b.Predict(test.X)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed produced different classifiers")
		}
	}
}

func TestAllTechniquesTrainAndPredict(t *testing.T) {
	train, test := tinySet(t)
	faulty, _, err := faultinject.MislabelRate(train, 0.2, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	clean := train.StratifiedIndices(0.15, xrand.New(8))
	ts := TrainSet{Data: faulty, CleanIndices: clean}
	for name, tech := range Registry() {
		if name == "ens" {
			continue // covered separately (slow)
		}
		c, err := tech.Train(fastConfig(), ts, xrand.New(9))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pred := c.Predict(test.X)
		if len(pred) != test.Len() {
			t.Fatalf("%s: %d predictions for %d test samples", name, len(pred), test.Len())
		}
		acc := metrics.Accuracy(pred, test.Labels)
		if acc < 0.4 { // well above 0.25 chance even with 20% mislabels
			t.Errorf("%s: accuracy %.2f suspiciously low", name, acc)
		}
	}
}

func TestEnsembleVoting(t *testing.T) {
	// Use a 2-member toy ensemble of fast models to keep the test quick.
	train, test := tinySet(t)
	ens := NewEnsemble([]string{"convnet", "deconvnet"})
	if ens.ModelsTrained() != 2 || ens.ModelsAtInference() != 2 {
		t.Fatal("overhead metadata should match member count")
	}
	c, err := ens.Train(Config{Epochs: 6, BatchSize: 32, LR: 0.01}, TrainSet{Data: train}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	acc := metrics.Accuracy(c.Predict(test.X), test.Labels)
	if acc < 0.6 {
		t.Fatalf("ensemble accuracy %.2f too low", acc)
	}
	probs := c.PredictProbs(test.X)
	if probs.Dim(0) != test.Len() || probs.Dim(1) != 4 {
		t.Fatalf("probs shape %v", probs.Shape())
	}
}

func TestEmptyEnsembleRejected(t *testing.T) {
	train, _ := tinySet(t)
	if _, err := NewEnsemble(nil).Train(fastConfig(), TrainSet{Data: train}, xrand.New(1)); err == nil {
		t.Fatal("empty ensemble accepted")
	}
}

func TestVotingClassifierMajority(t *testing.T) {
	// Three fixed classifiers: two vote class 1, one votes class 0.
	mk := func(class int, conf float64) Classifier {
		return fixedClassifier{class: class, conf: conf, classes: 3}
	}
	v := &VotingClassifier{Members: []Classifier{mk(1, 0.9), mk(1, 0.6), mk(0, 0.99)}, Classes: 3}
	x := tensor.New(2, 1, 1, 1)
	pred := v.Predict(x)
	for _, p := range pred {
		if p != 1 {
			t.Fatalf("majority vote = %d, want 1", p)
		}
	}
}

func TestVotingClassifierTieBreak(t *testing.T) {
	// One vote each for class 0 and class 1; class 1 has more probability
	// mass, so the tie must break to 1.
	v := &VotingClassifier{Members: []Classifier{
		fixedClassifier{class: 0, conf: 0.55, classes: 2},
		fixedClassifier{class: 1, conf: 0.95, classes: 2},
	}, Classes: 2}
	x := tensor.New(1, 1, 1, 1)
	if got := v.Predict(x)[0]; got != 1 {
		t.Fatalf("tie-break picked %d, want 1", got)
	}
}

// fixedClassifier always predicts one class with fixed confidence.
type fixedClassifier struct {
	class   int
	conf    float64
	classes int
}

func (f fixedClassifier) PredictProbs(x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	out := tensor.New(n, f.classes)
	rest := (1 - f.conf) / float64(f.classes-1)
	for i := 0; i < n; i++ {
		for c := 0; c < f.classes; c++ {
			if c == f.class {
				out.Set(f.conf, i, c)
			} else {
				out.Set(rest, i, c)
			}
		}
	}
	return out
}

func (f fixedClassifier) Predict(x *tensor.Tensor) []int {
	out := make([]int, x.Dim(0))
	for i := range out {
		out[i] = f.class
	}
	return out
}

func TestLabelCorrectionNeedsClasses(t *testing.T) {
	// A clean subset smaller than the class count must be rejected.
	train, _ := tinySet(t)
	lc := NewLabelCorrection(0.1)
	_, err := lc.Train(fastConfig(), TrainSet{Data: train, CleanIndices: []int{0, 1}}, xrand.New(1))
	if err == nil {
		t.Fatal("undersized clean subset accepted")
	}
}

func TestLabelCorrectionReservesOwnCleanSet(t *testing.T) {
	train, test := tinySet(t)
	lc := NewLabelCorrection(0.2)
	c, err := lc.Train(fastConfig(), TrainSet{Data: train}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Predict(test.X)) != test.Len() {
		t.Fatal("prediction failed")
	}
}

func TestMitigationBeatsBaselineUnderHeavyNoise(t *testing.T) {
	// Statistical smoke check: at 40% mislabelling, label smoothing should
	// not be substantially worse than the unprotected baseline (averaged
	// over 3 seeds to damp variance).
	train, test := tinySet(t)
	faulty, _, err := faultinject.MislabelRate(train, 0.4, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	ts := TrainSet{Data: faulty}
	var baseSum, lsSum float64
	const reps = 3
	for rep := 0; rep < reps; rep++ {
		seed := uint64(100 + rep)
		b, err := Baseline{}.Train(fastConfig(), ts, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		l, err := LabelSmoothing{Alpha: 0.25}.Train(fastConfig(), ts, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		baseSum += metrics.Accuracy(b.Predict(test.X), test.Labels)
		lsSum += metrics.Accuracy(l.Predict(test.X), test.Labels)
	}
	if lsSum < baseSum-0.15*reps {
		t.Fatalf("label smoothing (%.2f) much worse than baseline (%.2f) under noise",
			lsSum/reps, baseSum/reps)
	}
}

func TestKnowledgeDistillationStudentDiffers(t *testing.T) {
	train, test := tinySet(t)
	kd := KnowledgeDistillation{Alpha: 0.7, T: 3}
	student, err := kd.Train(fastConfig(), TrainSet{Data: train}, xrand.New(15))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Baseline{}.Train(fastConfig(), TrainSet{Data: train}, xrand.New(15))
	if err != nil {
		t.Fatal(err)
	}
	sp, bp := student.Predict(test.X), base.Predict(test.X)
	same := 0
	for i := range sp {
		if sp[i] == bp[i] {
			same++
		}
	}
	if same == len(sp) {
		t.Log("student identical to baseline on this test set (possible but unusual)")
	}
	if metrics.Accuracy(sp, test.Labels) < 0.5 {
		t.Fatal("distilled student failed to learn")
	}
}

func TestConfigDefaults(t *testing.T) {
	c, info, err := Config{Arch: "convnet"}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.Epochs != info.DefaultEpochs || c.LR != info.DefaultLR || c.BatchSize != 32 || c.WidthMult != 1 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if _, _, err := (Config{Arch: "bogus"}).withDefaults(); err == nil {
		t.Fatal("unknown arch accepted")
	}
}

func TestAccuracyHelper(t *testing.T) {
	train, test := tinySet(t)
	c, err := Baseline{}.Train(fastConfig(), TrainSet{Data: train}, xrand.New(17))
	if err != nil {
		t.Fatal(err)
	}
	a1 := Accuracy(c, test)
	a2 := metrics.Accuracy(c.Predict(test.X), test.Labels)
	if a1 != a2 {
		t.Fatalf("Accuracy helper %v != metrics %v", a1, a2)
	}
}

func TestTrainLoopDivergenceDetection(t *testing.T) {
	train, _ := tinySet(t)
	// An absurd learning rate must either diverge (reported as error) or
	// still return a classifier — never panic.
	_, err := Baseline{}.Train(Config{Arch: "convnet", Epochs: 3, LR: 1e6}, TrainSet{Data: train}, xrand.New(19))
	if err != nil {
		t.Logf("diverged as expected: %v", err)
	}
}

// TestNewUntrainedBuildsClassifier checks the exported untrained-model
// constructor used by serving tests and benchmarks.
// TestNewUntrainedBuildsClassifier checks the exported untrained-model
// constructor used by serving tests and benchmarks.
func TestNewUntrainedBuildsClassifier(t *testing.T) {
	train, _ := tinySet(t)
	c, err := NewUntrained(Config{Arch: "convnet", WidthMult: 0.5}, train, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	probs := c.PredictProbs(train.X.SliceRows(0, 3))
	if probs.Dim(0) != 3 || probs.Dim(1) != train.NumClasses {
		t.Fatalf("probs shape %v, want [3,%d]", probs.Shape(), train.NumClasses)
	}
}
