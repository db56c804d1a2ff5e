// Package experiment implements the study's experimental protocol (§IV):
// generate a dataset, train a golden model on clean data, reserve a clean
// subset, inject training-data faults, train each TDFM technique on the
// faulty data, and measure accuracy and Accuracy Delta on a shared test
// set, repeated over seeds with 95% confidence intervals.
//
// The Runner memoizes test-set predictions by configuration so that work
// shared between the paper's tables and figures (golden models per
// (dataset, model, repetition); ensemble models per (dataset, fault spec,
// repetition)) is computed once per process. Both memo caches are
// single-flight: concurrent cells needing the same golden model block on
// the one in-flight training instead of duplicating it.
//
// Independent cells — distinct (dataset, model, technique, fault spec,
// repetition) tuples — execute on a bounded worker pool sized by the
// Workers field. Every cell derives its randomness from the root seed by
// cell key, never by call order, so any schedule (including Workers=1, the
// original serial behaviour) produces byte-identical results.
//
// Runs are crash-safe and observable through internal/obs: a Runner with a
// Journal attached records every completed cell durably (append-only JSONL
// journal plus atomically written per-cell prediction checkpoints), Resume
// reloads those cells into the memo cache so a killed grid recomputes only
// its unfinished cells, and a Sink receives structured progress events
// (cell start/finish, cache hit/miss, restores, grid plans). Because cell
// randomness is keyed rather than scheduled, a resumed run's outputs are
// byte-identical to an uninterrupted run's.
package experiment

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tdfm/internal/chaos"
	"tdfm/internal/core"
	"tdfm/internal/data"
	"tdfm/internal/datagen"
	"tdfm/internal/faultinject"
	"tdfm/internal/metrics"
	"tdfm/internal/obs"
	"tdfm/internal/parallel"
	"tdfm/internal/xrand"
)

// Runner executes experiment cells with memoization.
type Runner struct {
	// Scale selects dataset sizes (datagen tiers).
	Scale datagen.Scale
	// Seed is the root seed; every cell derives its randomness from it.
	Seed uint64
	// Reps is the number of repetitions per configuration (the paper uses
	// 20; the default harness uses a laptop-friendly count).
	Reps int
	// CleanFrac is the fraction of training data reserved from injection as
	// the clean subset for label correction (γ, §III-B2).
	CleanFrac float64
	// Progress, when non-nil, receives one line per trained cell.
	Progress io.Writer
	// EpochOverride, when > 0, replaces every architecture's default epoch
	// count (used by fast tests and reduced benchmarks).
	EpochOverride int
	// WidthMult, when > 0, scales every model's channel widths.
	WidthMult float64
	// Workers bounds how many experiment cells train concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 reproduces the original serial schedule.
	// Results are byte-identical at every setting because per-cell RNG is
	// keyed, not ordered. While the pool runs, its workers reserve slots
	// from the shared parallel budget so nested fan-out (ensemble members,
	// tensor ops) cannot oversubscribe the machine.
	Workers int
	// Journal, when non-nil, durably records every successfully trained
	// cell (journal record + atomic prediction checkpoint) so the run can
	// be resumed after a crash. Journal write failures never fail the
	// run; they surface as KindJournalError events on Sink.
	Journal *obs.Journal
	// Sink, when non-nil, receives structured progress events. Sinks
	// observe only: they are invoked outside result-bearing computation
	// and must be safe for concurrent use.
	Sink obs.Sink
	// Retries is how many extra training attempts a transiently failed
	// cell (panic, divergence, environmental I/O, timeout) gets before the
	// failure is recorded. Permanent (configuration) failures are never
	// retried. Every attempt derives the identical cell-keyed randomness,
	// so a successful retry is byte-identical to a fault-free run.
	Retries int
	// CellTimeout, when > 0, bounds each cell's training wall-clock; a
	// cell over budget fails with a timeout-classified error. The timeout
	// context is independent of Ctx: run-level cancellation drains
	// in-flight cells rather than aborting them.
	CellTimeout time.Duration
	// Ctx, when non-nil, cancels the run cooperatively. It gates
	// scheduling only: cells not yet started return a cancelled cell
	// error (nothing cached, nothing recorded as failed), while in-flight
	// cells run to completion and journal normally, so an interrupted run
	// resumes without losing finished work.
	Ctx context.Context
	// Remote, when non-nil, delegates every uncached cell to an external
	// executor (the distributed grid coordinator in internal/dist)
	// instead of training locally. Everything else — memoization, the
	// retry taxonomy, cancellation, events — behaves identically, and
	// because cell randomness is keyed rather than scheduled, a remotely
	// executed cell's predictions are byte-identical to a local run's.
	// The executor owns durable recording (its journal append is the
	// completion acknowledgement), so the runner's own Journal append is
	// skipped; attach the same Journal to the executor and Resume reads
	// it back exactly like a local run.
	Remote CellExecutor

	mu       sync.Mutex
	datasets map[string]*dsEntry
	preds    map[string]*predEntry
	failures map[string]*CellError
}

// dsEntry is a single-flight memo slot for a generated dataset pair.
type dsEntry struct {
	done        chan struct{}
	train, test *data.Dataset
	err         error
}

// predEntry is a single-flight memo slot for one trained cell.
type predEntry struct {
	done     chan struct{}
	pred     []int
	trainDur time.Duration
	err      error
}

// NewRunner returns a runner with the study defaults.
func NewRunner(scale datagen.Scale, seed uint64, reps int) *Runner {
	return &Runner{
		Scale:     scale,
		Seed:      seed,
		Reps:      reps,
		CleanFrac: 0.1,
		datasets:  make(map[string]*dsEntry),
		preds:     make(map[string]*predEntry),
		failures:  make(map[string]*CellError),
	}
}

// emit forwards an event to the runner's sink, if any.
func (r *Runner) emit(e obs.Event) {
	if r.Sink != nil {
		r.Sink.Emit(e)
	}
}

// workers resolves the Workers field to an effective pool size.
func (r *Runner) workers() int {
	if r.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if r.Workers < 1 {
		return 1
	}
	return r.Workers
}

// DatasetNames lists the three study datasets in paper order
// (Table II / Table IV order: CIFAR-10, GTSRB, Pneumonia).
func DatasetNames() []string { return []string{"cifar10like", "gtsrblike", "pneumonialike"} }

// Dataset returns the generated train/test pair for a study dataset,
// memoized per runner. Concurrent calls for the same dataset block on one
// generation (single flight).
func (r *Runner) Dataset(name string) (train, test *data.Dataset, err error) {
	r.mu.Lock()
	if e, ok := r.datasets[name]; ok {
		r.mu.Unlock()
		<-e.done
		return e.train, e.test, e.err
	}
	e := &dsEntry{done: make(chan struct{})}
	r.datasets[name] = e
	r.mu.Unlock()
	defer close(e.done)

	cfgs := datagen.Presets(r.Scale, r.Seed)
	cfg, ok := cfgs[name]
	if !ok {
		e.err = fmt.Errorf("experiment: unknown dataset %q (have %v)", name, DatasetNames())
		return nil, nil, e.err
	}
	e.train, e.test, e.err = datagen.Generate(cfg)
	return e.train, e.test, e.err
}

// FaultSpec mirrors faultinject.Spec for experiment definitions.
type FaultSpec = faultinject.Spec

// CellSpec names one experiment cell portably: the five grid coordinates
// that, together with a runner configuration, fully determine the cell's
// key, randomness, and therefore its byte-exact predictions. It is the
// unit the distributed grid leases over the wire (JSON round-trips every
// field exactly — Rate is a float64, which encoding/json preserves
// bit-for-bit).
type CellSpec struct {
	// Dataset is the study dataset name (see DatasetNames).
	Dataset string `json:"dataset"`
	// Technique is the mitigation technique identifier ("base", "ls", …).
	Technique string `json:"technique"`
	// Arch is the model architecture identifier.
	Arch string `json:"arch"`
	// Specs are the injected fault specifications (empty means clean).
	Specs []FaultSpec `json:"specs,omitempty"`
	// Rep is the repetition index.
	Rep int `json:"rep"`
}

// CellExecutor executes one experiment cell outside the local trainer —
// the seam the distributed grid plugs into (Runner.Remote). Implementations
// must return the exact predictions a local trainCell would produce for
// the same key; errors flow into the runner's transient/permanent
// taxonomy, so an executor signals "worth retrying" by wrapping one of
// the transient sentinels (ErrLeaseExpired, ErrWorkerLost, …).
type CellExecutor interface {
	// ExecuteCell runs the cell named by key/spec and returns its test-set
	// predictions and training duration. It may block for as long as the
	// cell takes to train somewhere.
	ExecuteCell(key string, spec CellSpec) (pred []int, trainDur time.Duration, err error)
}

// specsKey canonicalizes a fault-spec list for cache keys.
func specsKey(specs []FaultSpec) string {
	if len(specs) == 0 {
		return "clean"
	}
	parts := make([]string, len(specs))
	for i, s := range specs {
		parts[i] = fmt.Sprintf("%s@%g", s.Type, s.Rate)
	}
	return strings.Join(parts, "+")
}

// cellKey identifies a unique training run.
func (r *Runner) cellKey(ds, tech, arch string, specs []FaultSpec, rep int) string {
	// The ensemble ignores the architecture (it trains its own members), so
	// its cache entry is shared across model panels.
	if tech == "ens" {
		arch = "-"
	}
	return fmt.Sprintf("%s|%s|%s|%s|rep%d|scale%d|seed%d|ep%d", ds, tech, arch, specsKey(specs), rep, r.Scale, r.Seed, r.EpochOverride)
}

// CellKey returns the cache key identifying one cell's training run.
// Chaos tests use it to target faults at specific cells, and CLIs use it
// to report failures; the format is stable within one binary, not a
// persistence API.
func (r *Runner) CellKey(ds, tech, arch string, specs []FaultSpec, rep int) string {
	return r.cellKey(ds, tech, arch, specs, rep)
}

// cellRNG derives the deterministic random stream of a cell. The stream
// depends only on (root seed, cell key): no matter which worker trains the
// cell, or in what order, the cell sees identical randomness.
func (r *Runner) cellRNG(key string) *xrand.RNG {
	return xrand.New(r.Seed).Split(key)
}

// Predictions trains (or recalls) the given technique/architecture on ds
// with the given faults injected, and returns test-set predictions plus the
// training duration of the original (uncached) run. Concurrent calls for
// the same cell block on the one in-flight training (single flight).
//
// Failures are classified (see CellError) and handled by class: permanent
// configuration errors stay memoized so the cell reports the same error
// everywhere without retraining; transient failures (panic, divergence,
// I/O, timeout) are retried up to Retries extra attempts and, if still
// failing, evicted from the memo cache so a later call — or a -resume
// rerun — trains the cell fresh; cancellation caches and records nothing.
// Every attempt derives the identical cell-keyed randomness, so a
// successful retry is byte-identical to a fault-free run.
func (r *Runner) Predictions(ds, tech, arch string, specs []FaultSpec, rep int) ([]int, time.Duration, error) {
	key := r.cellKey(ds, tech, arch, specs, rep)
	r.mu.Lock()
	if e, ok := r.preds[key]; ok {
		r.mu.Unlock()
		r.emit(obs.Event{Kind: obs.KindCacheHit, Key: key})
		<-e.done
		return e.pred, e.trainDur, e.err
	}
	if r.Ctx != nil && r.Ctx.Err() != nil {
		// Cancellation gates scheduling only. Nothing is cached or recorded
		// as failed: the cell simply did not run, and a resumed run
		// recomputes it.
		r.mu.Unlock()
		ce := classifyCellError(key, 0, r.Ctx.Err())
		r.emit(obs.Event{Kind: obs.KindCellCancelled, Key: key, Err: ce})
		return nil, 0, ce
	}
	e := &predEntry{done: make(chan struct{})}
	r.preds[key] = e
	r.mu.Unlock()
	defer close(e.done)
	r.emit(obs.Event{Kind: obs.KindCacheMiss, Key: key})
	r.emit(obs.Event{Kind: obs.KindCellStart, Key: key})
	e.pred, e.trainDur, e.err = r.trainCellWithRetry(key, ds, tech, arch, specs, rep)
	r.emit(obs.Event{Kind: obs.KindCellFinish, Key: key, Dur: e.trainDur, Err: e.err})
	r.recordOutcome(key, e)
	if e.err == nil && r.Journal != nil && r.Remote == nil {
		// With a Remote executor the coordinator appended the flowed-back
		// record durably before acknowledging the cell; appending here
		// again would double-journal it.
		rec := obs.Record{
			Key:       key,
			TrainNS:   e.trainDur.Nanoseconds(),
			Workers:   r.workers(),
			Seed:      r.Seed,
			WidthMult: r.WidthMult,
			CleanFrac: r.CleanFrac,
		}
		if jerr := r.Journal.Append(rec, e.pred); jerr != nil {
			r.emit(obs.Event{Kind: obs.KindJournalError, Key: key, Err: jerr})
		}
	}
	return e.pred, e.trainDur, e.err
}

// recordOutcome applies the failure-class policy to a finished cell: track
// the failure (clearing it on a later success), evict non-permanent
// failures from the memo cache, and emit the classified failure event.
func (r *Runner) recordOutcome(key string, e *predEntry) {
	r.mu.Lock()
	if e.err == nil {
		delete(r.failures, key)
		r.mu.Unlock()
		return
	}
	ce, ok := e.err.(*CellError)
	if !ok {
		ce = classifyCellError(key, 1, e.err)
	}
	if ce.Class != ClassPermanent && r.preds[key] == e {
		delete(r.preds, key)
	}
	if ce.Class != ClassCancelled {
		if r.failures == nil {
			r.failures = make(map[string]*CellError)
		}
		r.failures[key] = ce
	}
	r.mu.Unlock()
	switch ce.Reason {
	case ReasonPanic:
		r.emit(obs.Event{Kind: obs.KindCellPanic, Key: key, Err: ce})
	case ReasonDivergence:
		r.emit(obs.Event{Kind: obs.KindCellDiverged, Key: key, Err: ce})
	case ReasonCancelled:
		r.emit(obs.Event{Kind: obs.KindCellCancelled, Key: key, Err: ce})
	}
}

// Failures returns the classified failure of every cell that definitively
// failed (after retries), sorted by cell key. Cells whose later retraining
// succeeded are excluded; cancelled cells were never failures. CLIs use
// this for the end-of-run failure report and the nonzero exit code.
func (r *Runner) Failures() []*CellError {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*CellError, 0, len(r.failures))
	for _, ce := range r.failures {
		out = append(out, ce)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// trainCellWithRetry runs trainCell under the retry policy: transient
// failures get up to Retries extra attempts (each reusing the identical
// cell-keyed randomness), permanent and cancelled failures return
// immediately. The returned error, if any, is a *CellError.
func (r *Runner) trainCellWithRetry(key, ds, tech, arch string, specs []FaultSpec, rep int) ([]int, time.Duration, error) {
	var total time.Duration
	for attempt := 1; ; attempt++ {
		pred, dur, err := r.executeCell(key, ds, tech, arch, specs, rep)
		total += dur
		if err == nil {
			return pred, total, nil
		}
		ce := classifyCellError(key, attempt, err)
		if ce.Class != ClassTransient || attempt > r.Retries {
			return nil, total, ce
		}
		r.emit(obs.Event{Kind: obs.KindCellRetry, Key: key, N: attempt, Err: ce})
	}
}

// executeCell runs one uncached Predictions attempt: locally through
// trainCell, or through the Remote executor when one is installed. The
// remote path recovers panics exactly like the local one so a broken
// executor cannot take down the grid.
func (r *Runner) executeCell(key, ds, tech, arch string, specs []FaultSpec, rep int) (pred []int, dur time.Duration, err error) {
	if r.Remote == nil {
		return r.trainCell(key, ds, tech, arch, specs, rep)
	}
	defer func() {
		if v := recover(); v != nil {
			pred, dur = nil, 0
			err = fmt.Errorf("experiment: %s: %w", key, parallel.AsPanicError(v))
		}
	}()
	return r.Remote.ExecuteCell(key, CellSpec{Dataset: ds, Technique: tech, Arch: arch, Specs: specs, Rep: rep})
}

// trainCell performs the uncached work of one Predictions attempt. A panic
// anywhere in the cell — the fault injector, the trainer, a technique, or
// prediction — is recovered into an error carrying the panicking
// goroutine's stack, so one broken cell can never take down the rest of
// the grid.
func (r *Runner) trainCell(key, ds, tech, arch string, specs []FaultSpec, rep int) (pred []int, dur time.Duration, err error) {
	defer func() {
		if v := recover(); v != nil {
			pred, dur = nil, 0
			err = fmt.Errorf("experiment: %s: %w", key, parallel.AsPanicError(v))
		}
	}()
	// Chaos faultpoint: environment-shaped failures (panic or error) scoped
	// to this cell's key.
	if act := chaos.Check("experiment.trainCell", key); act != nil {
		if act.Panic {
			panic(fmt.Sprintf("chaos: injected cell panic (%s)", key))
		}
		if act.Err != nil {
			return nil, 0, fmt.Errorf("experiment: %s: %w", key, act.Err)
		}
	}
	train, test, err := r.Dataset(ds)
	if err != nil {
		return nil, 0, err
	}
	technique, err := core.Get(tech)
	if err != nil {
		return nil, 0, err
	}
	rng := r.cellRNG(key)

	// Reserve the clean subset before injection, exactly as §III-B2: the
	// reservation depends on (dataset, rep) only, so every technique sees
	// the same injected dataset for a given configuration.
	protoKey := fmt.Sprintf("%s|inject|%s|rep%d", ds, specsKey(specs), rep)
	injRNG := xrand.New(r.Seed).Split(protoKey)
	cleanIdx := train.StratifiedIndices(r.CleanFrac, injRNG.Split("clean"))
	faulty := train
	if len(specs) > 0 {
		inj := faultinject.New(injRNG.Split("faults"))
		inj.Protect(cleanIdx)
		faulty, _, err = inj.Inject(train, specs...)
		if err != nil {
			return nil, 0, err
		}
	}

	cfg := core.Config{Arch: arch, Epochs: r.EpochOverride, WidthMult: r.WidthMult, Tag: key}
	if r.CellTimeout > 0 {
		// The per-cell budget is independent of r.Ctx on purpose: run-level
		// cancellation drains in-flight cells instead of aborting them.
		ctx, cancel := context.WithTimeout(context.Background(), r.CellTimeout)
		defer cancel()
		cfg.Ctx = ctx
	}
	start := time.Now() //tdfm:allow nodeterminism training duration is a reported measurement, not part of any result
	clf, err := technique.Train(cfg,
		core.TrainSet{Data: faulty, CleanIndices: cleanIdx}, rng)
	if err != nil {
		return nil, 0, fmt.Errorf("experiment: %s: %w", key, err)
	}
	dur = time.Since(start) //tdfm:allow nodeterminism training duration is a reported measurement, not part of any result
	pred = clf.Predict(test.X)

	if r.Progress != nil {
		// Serialize concurrent cells' progress lines through the cache mutex.
		r.mu.Lock()
		fmt.Fprintf(r.Progress, "trained %-60s %8s\n", key, dur.Round(time.Millisecond))
		r.mu.Unlock()
	}
	return pred, dur, nil
}

// cellReq names one cell for warm-up scheduling.
type cellReq struct {
	ds, tech, arch string
	specs          []FaultSpec
	rep            int
}

// goldenReq is the golden-model cell backing a measurement cell.
func goldenReq(ds, arch string, rep int) cellReq {
	return cellReq{ds: ds, tech: "base", arch: arch, rep: rep}
}

// warm trains the given cells concurrently on the runner's worker pool so
// the serial measurement loops that follow hit the memo cache. Duplicate
// and already-cached cells are skipped; errors stay in the cache for the
// measurement loop to report deterministically. With Workers <= 1 (or
// fewer than two cells to train) warm is a no-op and the measurement loop
// trains serially, reproducing the original schedule exactly.
//
// The plan is sorted by a static cost, the number of models each
// technique trains, keeping plan order within a cost. The pool's extra
// workers take cells from the costly end, so the ensemble and KD cells
// start first instead of straggling at the end of the grid. The caller's
// worker takes them from the cheap end, in plan order, so the first
// result arrives as early as in plan order (an ensemble cell finishing
// first would add its five-model prediction to the wait). The order
// cannot reach a result: cells are keyed and memoized. A worker that
// finds no cell left hands its budget slot back at once, so the cells
// still running can shard their kernels onto the freed core.
func (r *Runner) warm(cells []cellReq) {
	seen := make(map[string]bool, len(cells))
	uniq := cells[:0:0]
	r.mu.Lock()
	for _, c := range cells {
		key := r.cellKey(c.ds, c.tech, c.arch, c.specs, c.rep)
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, cached := r.preds[key]; cached {
			continue
		}
		uniq = append(uniq, c)
	}
	r.mu.Unlock()
	// Announce the batch (deduplicated, uncached cells only) so progress
	// sinks can maintain a completion fraction and an ETA. Serial runs
	// announce too: the measurement loop trains the same cells inline.
	r.emit(obs.Event{Kind: obs.KindGridPlan, N: len(uniq)})
	w := r.workers()
	if w <= 1 || len(uniq) < 2 {
		return
	}
	if w > len(uniq) {
		w = len(uniq)
	}
	cost := make(map[string]int) // an unknown technique costs 0 and fails fast
	for _, c := range uniq {
		if t, err := core.Get(c.tech); err == nil {
			cost[c.tech] = t.ModelsTrained()
		}
	}
	sort.SliceStable(uniq, func(i, j int) bool { return cost[uniq[i].tech] < cost[uniq[j].tech] })
	// Reserve budget slots for the pool's extra workers so nested fan-out
	// (ensemble members, tensor kernels) degrades to inline execution
	// instead of oversubscribing; Workers stays authoritative for cell
	// concurrency even when the budget is spent.
	var held atomic.Int64
	held.Store(int64(parallel.TryAcquire(w - 1)))

	// taken counts the cells handed out from both ends, so the ends never
	// hand out the same cell.
	var taken, cheap, costly atomic.Int64
	var wg sync.WaitGroup
	work := func(cheapEnd bool) {
		defer wg.Done()
		// Out of cells: return a slot now, not when the last cell ends.
		// The last worker to finish runs on the caller's own slot.
		defer func() {
			if held.Add(-1) >= 0 {
				parallel.Release(1)
			}
		}()
		for {
			if r.Ctx != nil && r.Ctx.Err() != nil {
				return // cancelled: stop scheduling, in-flight cells drain
			}
			if int(taken.Add(1)) > len(uniq) {
				return
			}
			var c cellReq
			if cheapEnd {
				c = uniq[int(cheap.Add(1))-1]
			} else {
				c = uniq[len(uniq)-int(costly.Add(1))]
			}
			// Errors are classified and tracked by Predictions; the serial
			// measurement pass re-reports them.
			_, _, _ = r.Predictions(c.ds, c.tech, c.arch, c.specs, c.rep)
		}
	}
	wg.Add(w)
	for i := 1; i < w; i++ {
		go work(false) //tdfm:allow nodeterminism warm-up pool predates internal/parallel; cells are memoized so order cannot leak into results
	}
	work(true)
	wg.Wait()
}

// measureCells lists every cell MeasureAD needs: the technique cell and
// its golden counterpart for each repetition.
func (r *Runner) measureCells(ds, tech, arch string, specs []FaultSpec) []cellReq {
	cells := make([]cellReq, 0, 2*r.Reps)
	for rep := 0; rep < r.Reps; rep++ {
		cells = append(cells, goldenReq(ds, arch, rep))
		cells = append(cells, cellReq{ds: ds, tech: tech, arch: arch, specs: specs, rep: rep})
	}
	return cells
}

// Golden returns the golden model's predictions: the baseline architecture
// trained on clean data (§III-C).
func (r *Runner) Golden(ds, arch string, rep int) ([]int, error) {
	pred, _, err := r.Predictions(ds, "base", arch, nil, rep)
	return pred, err
}

// Cell is one measured configuration across repetitions.
type Cell struct {
	Dataset   string
	Technique string
	Arch      string
	Specs     []FaultSpec

	AD       metrics.Summary // accuracy delta vs the golden model
	Accuracy metrics.Summary // absolute test accuracy
	TrainDur time.Duration   // summed uncached training time

	// Failed counts repetitions that produced no measurement because the
	// technique cell or its golden counterpart failed; the summaries above
	// cover only the surviving repetitions (AD.N of r.Reps). Classified
	// failure details are available from Runner.Failures.
	Failed int
}

// MeasureAD runs the configuration for every repetition and summarizes the
// AD and accuracy. Repetitions train concurrently on the worker pool; the
// summary loop then reads the memo cache in repetition order, so the
// summarized series is identical to the serial schedule's.
//
// A repetition whose technique cell or golden counterpart fails is counted
// in Cell.Failed and skipped — the grid continues and the summaries cover
// the surviving repetitions. Only cancellation aborts the measurement with
// an error, leaving the remaining cells for a resumed run.
func (r *Runner) MeasureAD(ds, tech, arch string, specs []FaultSpec) (Cell, error) {
	cell := Cell{Dataset: ds, Technique: tech, Arch: arch, Specs: specs}
	_, test, err := r.Dataset(ds)
	if err != nil {
		return cell, err
	}
	r.warm(r.measureCells(ds, tech, arch, specs))
	ads := make([]float64, 0, r.Reps)
	accs := make([]float64, 0, r.Reps)
	for rep := 0; rep < r.Reps; rep++ {
		golden, err := r.Golden(ds, arch, rep)
		if err != nil {
			if IsCancelled(err) {
				return cell, err
			}
			cell.Failed++
			continue
		}
		faulty, dur, err := r.Predictions(ds, tech, arch, specs, rep)
		if err != nil {
			if IsCancelled(err) {
				return cell, err
			}
			cell.Failed++
			continue
		}
		cell.TrainDur += dur
		ads = append(ads, metrics.AccuracyDelta(golden, faulty, test.Labels))
		accs = append(accs, metrics.Accuracy(faulty, test.Labels))
	}
	cell.AD = metrics.Summarize(ads)
	cell.Accuracy = metrics.Summarize(accs)
	return cell, nil
}

// GoldenAccuracy measures the accuracy of a technique trained on CLEAN data
// (Table IV) averaged over repetitions. Failed repetitions are skipped (the
// returned Summary's N is the surviving count; N == 0 means every
// repetition failed); only cancellation returns an error.
func (r *Runner) GoldenAccuracy(ds, tech, arch string) (metrics.Summary, error) {
	_, test, err := r.Dataset(ds)
	if err != nil {
		return metrics.Summary{}, err
	}
	cells := make([]cellReq, 0, r.Reps)
	for rep := 0; rep < r.Reps; rep++ {
		cells = append(cells, cellReq{ds: ds, tech: tech, arch: arch, rep: rep})
	}
	r.warm(cells)
	accs := make([]float64, 0, r.Reps)
	for rep := 0; rep < r.Reps; rep++ {
		pred, _, err := r.Predictions(ds, tech, arch, nil, rep)
		if err != nil {
			if IsCancelled(err) {
				return metrics.Summary{}, err
			}
			continue
		}
		accs = append(accs, metrics.Accuracy(pred, test.Labels))
	}
	return metrics.Summarize(accs), nil
}

// Resume installs every completed cell recorded in the attached Journal's
// directory into the memo cache, so subsequent experiment calls recompute
// only the cells that were not durably recorded. Checkpoints are verified
// (key, length, digest) before use; corrupt journal lines, unreadable or
// mismatched checkpoints, and records from a different configuration
// (seed, scale, epoch override, width multiplier, or clean fraction) are
// skipped — with a KindJournalError event for damaged ones — and their
// cells recompute as usual.
//
// Restored cells are indistinguishable from freshly trained ones: they
// count in CacheSize and CachedKeys (golden "base" cells and technique
// cells alike), serve cache hits, and report their original training
// duration. Because per-cell randomness is keyed by cell key rather than
// by schedule, recomputing a skipped cell yields byte-identical
// predictions to the checkpointed run, so any mix of restored and
// recomputed cells produces the same summaries and CSVs as an
// uninterrupted run.
//
// Resume returns the number of cells restored and the number of journal
// entries skipped. It should be called before the first experiment call;
// records for cells already in the memo cache are ignored.
func (r *Runner) Resume() (restored, skipped int, err error) {
	if r.Journal == nil {
		return 0, 0, fmt.Errorf("experiment: Resume requires an attached Journal")
	}
	dir := r.Journal.Dir()
	recs, err := obs.Load(dir, func(line int, lerr error) {
		skipped++
		r.emit(obs.Event{Kind: obs.KindJournalError, Err: fmt.Errorf("journal line %d skipped: %w", line, lerr)})
	})
	if err != nil {
		return 0, skipped, err
	}
	// The cell key pins dataset/technique/arch/faults/rep plus scale,
	// seed, and epoch override; the record pins the remaining knobs that
	// affect results. Anything else belongs to a different study.
	suffix := fmt.Sprintf("|scale%d|seed%d|ep%d", r.Scale, r.Seed, r.EpochOverride)
	for _, rec := range recs {
		if !strings.HasSuffix(rec.Key, suffix) ||
			rec.Seed != r.Seed || rec.WidthMult != r.WidthMult || rec.CleanFrac != r.CleanFrac {
			skipped++
			continue
		}
		pred, perr := obs.LoadPred(dir, rec)
		if perr != nil {
			skipped++
			r.emit(obs.Event{Kind: obs.KindJournalError, Key: rec.Key, Err: perr})
			continue
		}
		e := &predEntry{done: make(chan struct{}), pred: pred, trainDur: time.Duration(rec.TrainNS)}
		close(e.done)
		installed := false
		r.mu.Lock()
		if _, exists := r.preds[rec.Key]; !exists {
			r.preds[rec.Key] = e
			installed = true
		}
		r.mu.Unlock()
		if installed {
			restored++
			r.emit(obs.Event{Kind: obs.KindCellRestored, Key: rec.Key, Dur: e.trainDur})
		} else {
			skipped++
		}
	}
	return restored, skipped, nil
}

// CacheSize returns the number of memoized successful prediction entries
// (diagnostic). In-flight and failed cells are excluded.
func (r *Runner) CacheSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.preds {
		select {
		case <-e.done:
			if e.err == nil {
				n++
			}
		default:
		}
	}
	return n
}

// CachedKeys returns the sorted keys of completed successful cells
// (diagnostic, used in tests).
func (r *Runner) CachedKeys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.preds))
	for k, e := range r.preds {
		select {
		case <-e.done:
			if e.err == nil {
				keys = append(keys, k)
			}
		default:
		}
	}
	sort.Strings(keys)
	return keys
}

// techniqueByName resolves a study technique (thin wrapper kept local so
// experiment definitions do not import core directly everywhere).
func techniqueByName(name string) (core.Technique, error) { return core.Get(name) }
