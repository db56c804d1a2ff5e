// Package core implements the paper's contribution: a common framework for
// training-data fault mitigation (TDFM) techniques, with the five
// representative techniques of the study —
//
//	Label Smoothing        (label relaxation, Lienen & Hüllermeier AAAI'21)
//	Label Correction       (meta label correction, Zheng et al. AAAI'21)
//	Robust Loss            (Active-Passive NCE+RCE, Ma et al. ICML'20)
//	Knowledge Distillation (self distillation, Zhang et al. ICCV'19)
//	Ensemble               (5-model majority vote, Chan et al. QRS'21)
//
// — plus the unprotected Baseline they are compared against. All techniques
// implement the Technique interface so the experiment harness can run the
// paper's golden/faulty protocol uniformly: train on clean data for the
// golden model, inject faults, train with a technique, and compare
// predictions on a shared test set.
package core

import (
	"context"
	"fmt"

	"tdfm/internal/data"
	"tdfm/internal/models"
	"tdfm/internal/nn"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// Classifier is a trained model ready for inference.
type Classifier interface {
	// PredictProbs returns class probabilities of shape [N, K].
	PredictProbs(x *tensor.Tensor) *tensor.Tensor
	// Predict returns the argmax class per input row.
	Predict(x *tensor.Tensor) []int
}

// TrainSet bundles a (possibly fault-injected) training dataset with the
// indices that are known clean. The experiment protocol reserves the clean
// indices from fault injection (§III-B2); only the Label Correction
// technique consumes them, every other technique ignores the field.
type TrainSet struct {
	Data         *data.Dataset
	CleanIndices []int
}

// Config controls a technique's training run. Zero values for Epochs,
// BatchSize, and LR are replaced by per-architecture defaults from the
// model registry.
type Config struct {
	// Arch is the model architecture name (see package models).
	Arch string
	// Epochs, BatchSize, LR override the architecture defaults when > 0.
	Epochs    int
	BatchSize int
	LR        float64
	// WidthMult scales model capacity; 0 means 1.0.
	WidthMult float64
	// Ctx, when non-nil, cancels the training run cooperatively: the train
	// loop checks it between batches and returns its error (the experiment
	// runner derives it from per-cell timeouts and CLI interrupts).
	// Cancellation never corrupts results — a cancelled run returns an
	// error, never a partially trained classifier.
	Ctx context.Context
	// Tag is a diagnostic label for this run (the experiment runner sets it
	// to the cell key). It scopes chaos faultpoints and log lines to a cell
	// and never influences the computed results.
	Tag string
}

// withDefaults resolves zero fields against the architecture registry.
func (c Config) withDefaults() (Config, models.Info, error) {
	info, err := models.Get(c.Arch)
	if err != nil {
		return c, models.Info{}, err
	}
	if c.Epochs <= 0 {
		c.Epochs = info.DefaultEpochs
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = info.DefaultLR
	}
	if c.WidthMult <= 0 {
		c.WidthMult = 1
	}
	return c, info, nil
}

// buildFor constructs the configured architecture sized for the dataset.
func (c Config) buildFor(ds *data.Dataset, rng *xrand.RNG) (Classifier, *builtModel, error) {
	resolved, _, err := c.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	net, err := models.Build(resolved.Arch, models.BuildConfig{
		InChannels: ds.Channels(),
		Height:     ds.Height(),
		Width:      ds.Width(),
		NumClasses: ds.NumClasses,
		WidthMult:  resolved.WidthMult,
		RNG:        rng,
	})
	if err != nil {
		return nil, nil, err
	}
	// Every built network gets its own allocation arena: the training loop
	// recycles activations after each optimizer step, inference after each
	// chunk (DESIGN.md §10). Tests that need the allocate-per-call
	// reference install the nil arena over it.
	nn.InstallArena(net, tensor.NewArena())
	bm := &builtModel{net: net, cfg: resolved, classes: ds.NumClasses,
		inC: ds.Channels(), inH: ds.Height(), inW: ds.Width()}
	return bm, bm, nil
}

// NewUntrained builds the configured architecture sized for ds with
// freshly initialized (untrained) weights and returns it as a
// Classifier. Serving tests and benchmarks use it to exercise the
// prediction path of real architectures without paying for training.
func NewUntrained(cfg Config, ds *data.Dataset, rng *xrand.RNG) (Classifier, error) {
	c, _, err := cfg.buildFor(ds, rng)
	return c, err
}

// Technique is a training-data fault mitigation approach.
type Technique interface {
	// Name returns the short identifier used in reports ("ls", "ens", ...).
	Name() string
	// Description returns the human-readable technique description.
	Description() string
	// Train fits a classifier on the (possibly faulty) training set.
	Train(cfg Config, ts TrainSet, rng *xrand.RNG) (Classifier, error)
	// ModelsTrained returns how many full model trainings one Train call
	// performs (drives the paper's §IV-E training-overhead accounting).
	ModelsTrained() int
	// ModelsAtInference returns how many models each prediction consults
	// (drives the §IV-E inference-overhead accounting).
	ModelsAtInference() int
}

// Registry returns the six study techniques (baseline plus the five TDFM
// approaches) with the paper's hyperparameters, keyed by short name.
func Registry() map[string]Technique {
	return map[string]Technique{
		"base": Baseline{},
		"ls":   LabelSmoothing{Alpha: 0.25},
		"lc":   NewLabelCorrection(0.1),
		"rl":   RobustLoss{Alpha: 1, Beta: 1},
		"kd":   KnowledgeDistillation{Alpha: 0.7, T: 3},
		"ens":  NewEnsemble(models.EnsembleMembers()),
	}
}

// StudyOrder lists technique short names in the order used by the paper's
// tables (Base, LS, LC, RL, KD, Ens).
func StudyOrder() []string { return []string{"base", "ls", "lc", "rl", "kd", "ens"} }

// Get returns a study technique by short name.
func Get(name string) (Technique, error) {
	t, ok := Registry()[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown technique %q (have %v)", name, StudyOrder())
	}
	return t, nil
}
