package core

import (
	"fmt"

	"tdfm/internal/data"
	"tdfm/internal/loss"
	"tdfm/internal/nn"
	"tdfm/internal/opt"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// LabelCorrection is the study's Label Correction representative: meta
// label correction (§III-B2). Two models train concurrently:
//
//   - the primary model performs the classification task;
//   - a secondary multilayer perceptron consumes the primary's logits
//     concatenated with the (possibly noisy) one-hot label and emits a
//     corrected soft label the primary trains against.
//
// The secondary is trained on a clean subset of the training data (fraction
// γ, reserved from fault injection) augmented with synthetic label flips so
// it learns the correction mapping. This is the practical first-order
// variant of Zheng et al.'s bi-level formulation; DESIGN.md §5 documents
// the deviation. The properties the paper's findings rest on are preserved:
// a clean subset is required, a second model trains concurrently (high
// overhead), and the MLP secondary degrades as the class count grows
// (GTSRB's 43 classes, §IV-D).
type LabelCorrection struct {
	// Gamma is the fraction of training data reserved as the clean subset
	// when the TrainSet does not already carry clean indices.
	Gamma float64
	// HiddenDim bounds the secondary MLP's capacity; the paper attributes
	// LC's failure on many-class datasets to this bound.
	HiddenDim int
	// SynthFlip is the probability of synthesizing a wrong label when
	// training the secondary on the clean subset.
	SynthFlip float64
}

var _ Technique = (*LabelCorrection)(nil)

// NewLabelCorrection returns label correction with clean fraction gamma and
// the study's secondary-model capacity.
func NewLabelCorrection(gamma float64) *LabelCorrection {
	return &LabelCorrection{Gamma: gamma, HiddenDim: 24, SynthFlip: 0.35}
}

// Name implements Technique.
func (*LabelCorrection) Name() string { return "lc" }

// Description implements Technique.
func (*LabelCorrection) Description() string {
	return "meta label correction (primary + secondary MLP)"
}

// ModelsTrained implements Technique: the primary plus the concurrently
// trained secondary.
func (*LabelCorrection) ModelsTrained() int { return 2 }

// ModelsAtInference implements Technique: only the primary serves.
func (*LabelCorrection) ModelsAtInference() int { return 1 }

// secondary is the correction MLP: [logits ‖ one-hot label] → soft label.
type secondary struct {
	net     *nn.Sequential
	classes int
}

func newSecondary(classes, hidden int, rng *xrand.RNG) *secondary {
	return &secondary{
		net: nn.NewSequential(
			nn.NewDense("lc.sec1", 2*classes, hidden, rng),
			nn.NewReLU(),
			nn.NewDense("lc.sec2", hidden, classes, rng),
		),
		classes: classes,
	}
}

// features builds the secondary's input rows from primary logits and given
// labels.
func (s *secondary) features(logits *tensor.Tensor, labels []int) *tensor.Tensor {
	n := logits.Dim(0)
	k := s.classes
	x := tensor.New(n, 2*k)
	probs := loss.Softmax(logits)
	for r := 0; r < n; r++ {
		copy(x.Data()[r*2*k:r*2*k+k], probs.Data()[r*k:(r+1)*k])
		x.Data()[r*2*k+k+labels[r]] = 1
	}
	return x
}

// correct returns the secondary's soft labels for a batch.
func (s *secondary) correct(logits *tensor.Tensor, labels []int) *tensor.Tensor {
	return loss.Softmax(s.net.Forward(s.features(logits, labels), false))
}

// Train runs the alternating primary/secondary training: phase 1 is
// trainLoop's epoch-start hook, phase 2 the loop itself.
func (l *LabelCorrection) Train(cfg Config, ts TrainSet, rng *xrand.RNG) (Classifier, error) {
	gamma := l.Gamma
	if gamma <= 0 {
		gamma = 0.1
	}
	hidden := l.HiddenDim
	if hidden <= 0 {
		hidden = 24
	}
	ds := ts.Data
	clean := ts.CleanIndices
	if len(clean) == 0 {
		// No reserved subset supplied: reserve one now (trusting its labels,
		// as the paper does when forming clean subsets by manual
		// verification).
		clean = ds.StratifiedIndices(gamma, rng.Split("clean-pick"))
	}
	if len(clean) < ds.NumClasses {
		return nil, fmt.Errorf("core: label correction needs a clean subset with at least one sample per class (got %d for %d classes)",
			len(clean), ds.NumClasses)
	}
	cleanSet := ds.Subset(clean)

	resolved, _, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	classifier, primary, err := cfg.buildFor(ds, rng.Split("primary-init"))
	if err != nil {
		return nil, err
	}
	sec := newSecondary(ds.NumClasses, hidden, rng.Split("secondary-init"))
	secInit := nn.TakeSnapshot(sec.net)
	primaryLoss := &correctedLoss{sec: sec}
	var secondaryOpt *opt.Adam
	var flipRNG *xrand.RNG

	// Phase 1: train the secondary on the clean subset with synthetic
	// flips. Input: (primary probs, possibly-flipped label); target: the
	// true label. It shuffles from the loop's stream, at the loop's LR.
	phase1 := func(epoch int, lr float64, shuffle *xrand.RNG) {
		if epoch == 0 {
			// Every attempt, recoveries included, restarts the secondary:
			// initial weights, fresh Adam, a flip stream split after the loop's.
			if err := secInit.Restore(sec.net); err != nil {
				panic(fmt.Sprintf("core: restoring the secondary's own snapshot: %v", err))
			}
			secondaryOpt = opt.NewAdam(lr)
			flipRNG = rng.Split("synth-flip")
		}
		secondaryOpt.SetLR(lr)
		cleanShuffled := cleanSet.Shuffled(shuffle)
		for start := 0; start < cleanShuffled.Len(); start += resolved.BatchSize {
			bx, by := cleanShuffled.Batch(start, resolved.BatchSize)
			logits := primary.net.Forward(bx, false) // primary frozen in this phase
			noisy := make([]int, len(by))
			for i, y := range by {
				noisy[i] = y
				if flipRNG.Bernoulli(l.synthFlip()) {
					wrong := flipRNG.IntN(ds.NumClasses - 1)
					if wrong >= y {
						wrong++
					}
					noisy[i] = wrong
				}
			}
			feats := sec.features(logits, noisy)
			secLogits := sec.net.Forward(feats, true)
			_, grad := loss.CrossEntropy{}.Forward(secLogits, data.OneHot(by, ds.NumClasses))
			sec.net.BackwardParams(grad)
			secondaryOpt.Step(sec.net.Params())
			nn.ZeroGrads(sec.net)
			// The primary ran inference-only this phase; its activations
			// (already folded into feats) recycle per batch.
			primary.net.Arena().Reset()
		}
		// The correction weight λ ramps in over training: early on the
		// primary's logits are uninformative and the secondary would only
		// inject noise, so the given labels dominate; as both models
		// converge the corrected labels take over (mirroring the warm-up
		// phase of meta label correction).
		primaryLoss.lambda = 0.7 * float64(epoch+1) / float64(resolved.Epochs)
	}
	if err := trainLoop(primary.net, ds, primaryLoss, cfg, rng, nil, phase1); err != nil {
		return nil, err
	}
	return classifier, nil
}

// correctedLoss is phase 2's loss: cross entropy against the blend
// (1−λ)·onehot + λ·correct(logits, labels), built in place in trainLoop's
// dead one-hot targets, whose rows give back the labels.
type correctedLoss struct {
	sec    *secondary
	lambda float64 // set by phase 1 at the start of each epoch
}

var _ loss.Loss = (*correctedLoss)(nil)

// Name implements loss.Loss.
func (*correctedLoss) Name() string { return "lc-corrected-ce" }

// Forward implements loss.Loss.
func (c *correctedLoss) Forward(logits, onehot *tensor.Tensor) (float64, *tensor.Tensor) {
	corrected := c.sec.correct(logits, onehot.ArgMaxRows())
	target := onehot.ScaleIn(1 - c.lambda)
	target.AddScaledIn(c.lambda, corrected)
	return loss.CrossEntropy{}.Forward(logits, target)
}

func (l *LabelCorrection) synthFlip() float64 {
	if l.SynthFlip <= 0 || l.SynthFlip >= 1 {
		return 0.35
	}
	return l.SynthFlip
}
