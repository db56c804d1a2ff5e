package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"tdfm/internal/datagen"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// serializeFixture builds a tiny dataset and a probe batch shared by the
// round-trip tests.
func serializeFixture(t *testing.T) (cfg datagen.Config, probe *tensor.Tensor) {
	t.Helper()
	cfg = datagen.Presets(datagen.ScaleTiny, 7)["gtsrblike"]
	_, test, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, test.X.SliceRows(0, 8)
}

// roundTrip exports c, gob-encodes, decodes, and imports it back.
func roundTrip(t *testing.T, c Classifier) Classifier {
	t.Helper()
	saved, err := Export(c)
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	var buf bytes.Buffer
	if err := saved.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	decoded, err := DecodeSaved(&buf)
	if err != nil {
		t.Fatalf("DecodeSaved: %v", err)
	}
	back, err := Import(decoded)
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	return back
}

// samePredictions asserts bitwise-equal probabilities and equal argmax
// classes for the probe batch.
func samePredictions(t *testing.T, want, got Classifier, probe *tensor.Tensor) {
	t.Helper()
	wp, gp := want.PredictProbs(probe), got.PredictProbs(probe)
	wd, gd := wp.Data(), gp.Data()
	if len(wd) != len(gd) {
		t.Fatalf("probs size %d != %d", len(gd), len(wd))
	}
	for i := range wd {
		if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
			t.Fatalf("probs[%d]: %v != %v (not bit-identical)", i, gd[i], wd[i])
		}
	}
}

// TestExportImportSingleRoundTrip pins the single-network round trip:
// the imported classifier's probabilities are bit-identical.
func TestExportImportSingleRoundTrip(t *testing.T) {
	cfg, probe := serializeFixture(t)
	train, _, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := Baseline{}.Train(Config{Arch: "convnet", Epochs: 1},
		TrainSet{Data: train}, xrand.New(3).Split("serialize"))
	if err != nil {
		t.Fatal(err)
	}
	samePredictions(t, clf, roundTrip(t, clf), probe)
}

// TestExportImportEnsembleRoundTrip pins the ensemble round trip with
// untrained (fast) members of two different architectures.
func TestExportImportEnsembleRoundTrip(t *testing.T) {
	cfg, probe := serializeFixture(t)
	train, _, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	var members []Classifier
	for _, arch := range []string{"convnet", "deconvnet"} {
		m, err := NewUntrained(Config{Arch: arch}, train, rng.Split("m-"+arch))
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, m)
	}
	ens := &VotingClassifier{Members: members, Classes: train.NumClasses}
	back := roundTrip(t, ens)
	if _, ok := back.(*VotingClassifier); !ok {
		t.Fatalf("imported classifier is %T, want *VotingClassifier", back)
	}
	samePredictions(t, ens, back, probe)
}

// TestExportRejectsUnknownClassifier pins the typed error for classifier
// types outside the serializable family.
func TestExportRejectsUnknownClassifier(t *testing.T) {
	if _, err := Export(unknownClf{}); !errors.Is(err, ErrUnsupportedClassifier) {
		t.Fatalf("err = %v, want ErrUnsupportedClassifier", err)
	}
}

// TestImportRejectsBadArtifacts pins typed errors for malformed saved
// classifiers: unknown kind, unknown precision, unknown architecture,
// and a missing snapshot.
func TestImportRejectsBadArtifacts(t *testing.T) {
	base := SavedClassifier{
		Kind: SavedSingle, Precision: SavedF64,
		Members: []SavedMember{{Arch: "convnet"}},
		Classes: 3, Channels: 1, Height: 8, Width: 8, WidthMult: 1,
	}
	cases := map[string]func(s *SavedClassifier){
		"unknown kind":      func(s *SavedClassifier) { s.Kind = "tree" },
		"unknown precision": func(s *SavedClassifier) { s.Precision = "f16" },
		"retired f32":       func(s *SavedClassifier) { s.Precision = "f32" },
		"unknown arch":      func(s *SavedClassifier) { s.Members[0].Arch = "transformer" },
		"missing snapshot":  func(s *SavedClassifier) {},
	}
	for name, mutate := range cases {
		s := base
		s.Members = []SavedMember{base.Members[0]}
		mutate(&s)
		if _, err := Import(&s); !errors.Is(err, ErrUnsupportedClassifier) {
			t.Errorf("%s: err = %v, want ErrUnsupportedClassifier", name, err)
		}
	}
}

// unknownClf is a Classifier outside the serializable family.
type unknownClf struct{}

func (unknownClf) PredictProbs(x *tensor.Tensor) *tensor.Tensor { return tensor.New(x.Dim(0), 2) }
func (unknownClf) Predict(x *tensor.Tensor) []int               { return make([]int, x.Dim(0)) }

// TestReleaseArenasLeavesClassifierUsable pins the retire contract: after
// ReleaseArenas the classifier still predicts, identically.
func TestReleaseArenasLeavesClassifierUsable(t *testing.T) {
	cfg, probe := serializeFixture(t)
	train, _, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewUntrained(Config{Arch: "convnet"}, train, xrand.New(9).Split("release"))
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), m.PredictProbs(probe).Data()...)
	ReleaseArenas(m)
	after := m.PredictProbs(probe).Data()
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("probs[%d] changed after ReleaseArenas: %v != %v", i, after[i], before[i])
		}
	}
}
