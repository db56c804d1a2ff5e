package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"tdfm/internal/chaos"
	"tdfm/internal/data"
	"tdfm/internal/loss"
	"tdfm/internal/nn"
	"tdfm/internal/opt"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// builtModel wraps a network as a Classifier and carries its training
// configuration.
type builtModel struct {
	net     *nn.Sequential
	cfg     Config
	classes int
	// inC, inH, inW record the input shape the network was built for, so
	// the model can be serialized (Export) and rebuilt (Import) without
	// the original dataset at hand.
	inC, inH, inW int
	// mu serializes inference: the network's arena recycles activations
	// and is not safe for concurrent use, and the serving layer fans
	// concurrent requests out to shared member models. Fan-out across
	// ensemble members stays parallel — each member owns its own arena.
	mu sync.Mutex
}

var _ Classifier = (*builtModel)(nil)

// predictBatch bounds memory use during inference. An inference forward
// recycles dead activations layer by layer (nn.Sequential.Forward), so a
// member's arena peaks at one layer's working set — its input, im2col
// scratch and output — which grows linearly with the chunk's row count.
const predictBatch = 128

// PredictProbs runs inference and returns softmax probabilities. Inputs
// larger than predictBatch rows run in chunks addressed as zero-copy
// SliceRows views (no staging copy on the serving hot path). Every layer's
// inference forward is row-independent — conv/im2col, pooling, and dense
// act per image, batch norm uses running statistics — so the chunk
// boundaries never influence the result: probabilities are bit-identical
// for any batch size, which is what lets the serving tier stack many
// requests into one forward pass and demux the rows afterwards.
func (m *builtModel) PredictProbs(x *tensor.Tensor) *tensor.Tensor {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := x.Dim(0)
	arena := m.net.Arena()
	if n <= predictBatch {
		probs := loss.Softmax(m.net.Forward(x, false))
		arena.Reset() // probs are fresh storage; activations recycle here
		return probs
	}
	out := tensor.New(n, m.classes)
	for start := 0; start < n; start += predictBatch {
		end := start + predictBatch
		if end > n {
			end = n
		}
		probs := loss.Softmax(m.net.Forward(x.SliceRows(start, end), false))
		copy(out.Data()[start*m.classes:end*m.classes], probs.Data())
		arena.Reset()
	}
	return out
}

// Predict returns argmax classes.
func (m *builtModel) Predict(x *tensor.Tensor) []int {
	return m.PredictProbs(x).ArgMaxRows()
}

// batchTargets lets training loops substitute per-batch targets
// (distillation records the batch for its teacher there). The default
// returns one-hot encodings of the dataset labels.
type batchTargets func(batchX *tensor.Tensor, batchLabels []int) *tensor.Tensor

// epochHook runs at the start of each epoch, after the optimizer takes
// the epoch's learning rate lr and before the epoch's shuffle is drawn
// from shuffle. Epoch 0 starts every attempt, so a stateful hook resets
// there to recover along with the network.
type epochHook func(epoch int, lr float64, shuffle *xrand.RNG)

// ErrDiverged marks a training run whose numerics diverged (NaN/Inf loss
// or exploding gradient norm) and stayed divergent through every bounded
// recovery attempt. Callers classify it as a transient failure: the
// experiment runner retries the cell under its retry policy, and reports
// "divergence" as the failure reason when retries are exhausted.
var ErrDiverged = errors.New("training diverged")

// Numerical-health policy of the trainer (§IV-B "garbage in, garbage out":
// a silently diverged model produces garbage predictions, so divergence is
// detected and surfaced, never returned as a trained classifier).
const (
	// maxRecoveries bounds the deterministic restart attempts after a
	// detected divergence before the run is declared failed.
	maxRecoveries = 2
	// explodeGradNorm is the global gradient-norm threshold treated as
	// divergence when gradient clipping is off (the first, unclipped
	// attempt). Healthy runs in this repository stay orders of magnitude
	// below it.
	explodeGradNorm = 1e6
	// recoveryClipNorm is the gradient clip applied during recovery
	// attempts.
	recoveryClipNorm = 1.0
	// recoveryBackoff multiplies the learning rate per recovery attempt.
	recoveryBackoff = 0.5
)

// trainLoop is the shared SGD loop: shuffle, batch, forward, loss,
// backward, step — guarded by a deterministic divergence detector. A
// NaN/Inf loss or an exploding gradient norm triggers a bounded recovery:
// the weights are restored to their initial snapshot and the run restarts
// with gradient clipping, a backed-off learning rate, and a fresh shuffle
// stream split from the same cell-keyed RNG. Detection and recovery are
// pure functions of the (seed, cell key) randomness, so a recovered run is
// byte-identical at any worker count. If the run is still divergent after
// maxRecoveries restarts, trainLoop returns an error wrapping ErrDiverged.
//
// When cfg.Ctx is non-nil the loop also checks it between batches and
// returns its error (context.Canceled / DeadlineExceeded) promptly, which
// is how per-cell timeouts and CLI interrupts cancel a training run
// cooperatively.
//
// Every technique trains here; label correction trains its secondary in
// hook (see epochHook), so the guard and the cancellation check cover it.
func trainLoop(
	net *nn.Sequential,
	ds *data.Dataset,
	lossFn loss.Loss,
	cfg Config,
	rng *xrand.RNG,
	targets batchTargets,
	hook epochHook,
) error {
	resolved, _, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	// Training's buffers are dead once the loop returns: released, they
	// go to the garbage collector instead of staying in the arena for
	// this network's smaller eval forwards.
	defer net.Arena().Release()
	if targets == nil {
		// Default one-hot targets draw from the network's arena: the target
		// tensor is dead after the batch's loss gradient is computed, so it
		// recycles with the activations.
		targets = func(_ *tensor.Tensor, labels []int) *tensor.Tensor {
			return data.FillOneHot(net.Arena().Tensor(len(labels), ds.NumClasses), labels)
		}
	}
	// The initial weights are snapshotted once so every recovery attempt
	// restarts from exactly the same state the first attempt saw.
	var init *nn.Snapshot
	var firstDiv error
	for attempt := 0; attempt <= maxRecoveries; attempt++ {
		lr, clip, shuffleLabel := resolved.LR, 0.0, "shuffle"
		if attempt > 0 {
			lr *= math.Pow(recoveryBackoff, float64(attempt))
			clip = recoveryClipNorm
			// Each restart draws a fresh, deterministically derived shuffle
			// stream; the split order (attempt number) is fixed, never
			// schedule-dependent.
			shuffleLabel = fmt.Sprintf("shuffle-recover%d", attempt)
			if err := init.Restore(net); err != nil {
				return fmt.Errorf("core: restoring weights for divergence recovery: %w", err)
			}
			nn.ZeroGrads(net)
		} else if maxRecoveries > 0 {
			init = nn.TakeSnapshot(net)
		}
		div, err := runEpochs(net, ds, lossFn, resolved, lr, clip, rng.Split(shuffleLabel), targets, hook)
		if err != nil {
			return err
		}
		if div == nil {
			return nil
		}
		if firstDiv == nil {
			firstDiv = div
		}
	}
	return fmt.Errorf("core: %v; still divergent after %d recovery attempts (grad clip %.3g, LR backoff ×%.3g): %w",
		firstDiv, maxRecoveries, recoveryClipNorm, recoveryBackoff, ErrDiverged)
}

// runEpochs executes one full pass of the configured epochs at the given
// learning rate and gradient clip (clip <= 0 disables clipping). It
// returns a divergence observation in div (the attempt can be retried) or
// a hard failure in err (cancellation; not retryable here).
func runEpochs(
	net *nn.Sequential,
	ds *data.Dataset,
	lossFn loss.Loss,
	cfg Config,
	lr, clip float64,
	shuffleRNG *xrand.RNG,
	targets batchTargets,
	hook epochHook,
) (div, err error) {
	optimizer := opt.NewAdam(lr)
	schedule := opt.CosineDecay{Total: cfg.Epochs}
	params := net.Params()
	arena := net.Arena()
	// Every return leaves the arena reset, so a recovery attempt reuses
	// this attempt's buffers instead of allocating a second set while the
	// first is still live. The arena keeps them until trainLoop releases
	// it.
	defer arena.Reset()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		optimizer.SetLR(lr * schedule.Factor(epoch))
		if hook != nil {
			hook(epoch, optimizer.LR(), shuffleRNG)
		}
		shuffled := ds.Shuffled(shuffleRNG)
		for start := 0; start < shuffled.Len(); start += cfg.BatchSize {
			if cfg.Ctx != nil {
				if cerr := cfg.Ctx.Err(); cerr != nil {
					return nil, fmt.Errorf("core: training interrupted at epoch %d: %w", epoch, cerr)
				}
			}
			end := start + cfg.BatchSize
			if end > shuffled.Len() {
				end = shuffled.Len()
			}
			// Zero-copy batch views: the shuffled dataset is already a fresh
			// deep copy, so slicing it is as isolated as the old per-batch
			// copy was, without the two allocations per step.
			bx := shuffled.X.SliceRows(start, end)
			by := shuffled.Labels[start:end]
			logits := net.Forward(bx, true)
			l, grad := lossFn.Forward(logits, targets(bx, by))
			if act := chaos.Check("core.trainLoop.loss", cfg.Tag); act != nil {
				if act.Panic {
					panic(fmt.Sprintf("chaos: injected trainer panic (tag %q)", cfg.Tag))
				}
				if act.NaN {
					l = math.NaN()
				}
			}
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return fmt.Errorf("loss diverged to %v at epoch %d", l, epoch), nil
			}
			net.BackwardParams(grad)
			norm := opt.ClipGradNorm(params, clip)
			// With clipping on, any finite explosion is contained by the
			// rescale; only a non-finite norm (NaN/Inf gradients) forces a
			// restart. Without clipping, a finite explosion past the
			// threshold is caught before it degrades into NaN.
			if math.IsInf(norm, 0) || (clip <= 0 && norm > explodeGradNorm) {
				for _, p := range params {
					p.ZeroGrad()
				}
				return fmt.Errorf("gradient norm %.3g exploded at epoch %d", norm, epoch), nil
			}
			optimizer.Step(params)
			// Zero gradients over the hoisted slice: nn.ZeroGrads would
			// rebuild the parameter list on every batch.
			for _, p := range params {
				p.ZeroGrad()
			}
			// All of this batch's activations and scratch are dead once the
			// step is applied; recycle them for the next batch.
			arena.Reset()
		}
	}
	return nil, nil
}

// Accuracy returns the fraction of test examples classified correctly.
func Accuracy(c Classifier, test *data.Dataset) float64 {
	pred := c.Predict(test.X)
	correct := 0
	for i, p := range pred {
		if p == test.Labels[i] {
			correct++
		}
	}
	if len(pred) == 0 {
		return 0
	}
	return float64(correct) / float64(len(pred))
}

// Snapshotter is implemented by classifiers whose weights can be captured
// and restored (single-network classifiers; ensembles are not snapshotable
// as one unit — snapshot their members individually).
type Snapshotter interface {
	Snapshot() *nn.Snapshot
	RestoreSnapshot(*nn.Snapshot) error
}

var _ Snapshotter = (*builtModel)(nil)

// Snapshot captures the model's current weights.
func (m *builtModel) Snapshot() *nn.Snapshot { return nn.TakeSnapshot(m.net) }

// RestoreSnapshot installs previously captured weights.
func (m *builtModel) RestoreSnapshot(s *nn.Snapshot) error { return s.Restore(m.net) }
