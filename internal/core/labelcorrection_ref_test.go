package core

import (
	"fmt"
	"math"
	"testing"

	"tdfm/internal/data"
	"tdfm/internal/loss"
	"tdfm/internal/nn"
	"tdfm/internal/opt"
	"tdfm/internal/xrand"
)

// refLabelCorrectionTrain is label correction's former two-phase loop,
// which trained the primary outside trainLoop, kept verbatim (less its
// optimizer releases) as the bit-for-bit specification of
// LabelCorrection.Train on a run that does not diverge.
func refLabelCorrectionTrain(l *LabelCorrection, cfg Config, ts TrainSet, rng *xrand.RNG) (Classifier, error) {
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
		clean = ds.StratifiedIndices(gamma, rng.Split("clean-pick"))
	}
	if len(clean) < ds.NumClasses {
		return nil, fmt.Errorf("reference: clean subset too small")
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
	if a := primary.net.Arena(); a != nil {
		defer a.Release()
	}
	sec := newSecondary(ds.NumClasses, hidden, rng.Split("secondary-init"))

	primaryOpt := opt.NewAdam(resolved.LR)
	secondaryOpt := opt.NewAdam(resolved.LR)
	schedule := opt.CosineDecay{Total: resolved.Epochs}
	shuffleRNG := rng.Split("shuffle")
	flipRNG := rng.Split("synth-flip")
	ce := loss.CrossEntropy{}

	for epoch := 0; epoch < resolved.Epochs; epoch++ {
		lr := resolved.LR * schedule.Factor(epoch)
		primaryOpt.SetLR(lr)
		secondaryOpt.SetLR(lr)

		cleanShuffled := cleanSet.Shuffled(shuffleRNG)
		for start := 0; start < cleanShuffled.Len(); start += resolved.BatchSize {
			bx, by := cleanShuffled.Batch(start, resolved.BatchSize)
			logits := primary.net.Forward(bx, false)
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
			_, grad := ce.Forward(secLogits, data.OneHot(by, ds.NumClasses))
			sec.net.BackwardParams(grad)
			secondaryOpt.Step(sec.net.Params())
			nn.ZeroGrads(sec.net)
			if a := primary.net.Arena(); a != nil {
				a.Reset()
			}
		}

		lambda := 0.7 * float64(epoch+1) / float64(resolved.Epochs)
		shuffled := ds.Shuffled(shuffleRNG)
		for start := 0; start < shuffled.Len(); start += resolved.BatchSize {
			bx, by := shuffled.Batch(start, resolved.BatchSize)
			logits := primary.net.Forward(bx, true)
			corrected := sec.correct(logits, by)
			target := data.OneHot(by, ds.NumClasses).ScaleIn(1 - lambda)
			target.AddScaledIn(lambda, corrected)
			_, grad := ce.Forward(logits, target)
			primary.net.BackwardParams(grad)
			primaryOpt.Step(primary.net.Params())
			nn.ZeroGrads(primary.net)
			if a := primary.net.Arena(); a != nil {
				a.Reset()
			}
		}
	}
	return classifier, nil
}

// TestLabelCorrectionMatchesReferenceLoop pins LabelCorrection.Train,
// whose primary trains through trainLoop with phase 1 as the epoch-start
// hook, to the former dedicated loop: Float64bits-equal primary test
// probabilities after 1, 3 and 6 epochs, with the clean subset given and
// with the subset reserved through the "clean-pick" split.
func TestLabelCorrectionMatchesReferenceLoop(t *testing.T) {
	train, test := tinySet(t)
	given := train.StratifiedIndices(0.2, xrand.New(40))
	for _, epochs := range []int{1, 3, 6} {
		for _, tc := range []struct {
			name  string
			clean []int
		}{{"given", given}, {"clean-pick", nil}} {
			t.Run(fmt.Sprintf("%s/epochs=%d", tc.name, epochs), func(t *testing.T) {
				cfg := fastConfig()
				cfg.Epochs = epochs
				ts := TrainSet{Data: train, CleanIndices: tc.clean}
				lc := NewLabelCorrection(0.2)
				got, err := lc.Train(cfg, ts, xrand.New(41))
				if err != nil {
					t.Fatal(err)
				}
				want, err := refLabelCorrectionTrain(lc, cfg, ts, xrand.New(41))
				if err != nil {
					t.Fatal(err)
				}
				g, w := got.PredictProbs(test.X).Data(), want.PredictProbs(test.X).Data()
				for i := range w {
					if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
						t.Fatalf("probability %d = %v, reference loop %v", i, g[i], w[i])
					}
				}
			})
		}
	}
}
