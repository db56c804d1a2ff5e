// Package obs makes long experiment runs crash-safe and observable.
//
// The package has two halves:
//
//   - A run journal (Journal): an append-only JSONL file plus one
//     atomically written prediction checkpoint per completed experiment
//     cell, stored under an artifacts directory. A killed grid run can be
//     resumed from the journal, recomputing only the cells that had not
//     finished; because every cell derives its randomness from the root
//     seed by cell key (never by schedule), the resumed run's outputs are
//     byte-identical to an uninterrupted run's.
//
//   - Observability sinks (Sink): structured progress events emitted by
//     the experiment runner — cell start/finish, memo cache hit/miss,
//     checkpoint restores, journal problems — and by the serving layer
//     (internal/serve: request admission and shedding, member timeouts
//     and panics, breaker transitions), which feed the CLIs' periodic
//     progress line (Progress, with pool occupancy and an ETA derived
//     from completed-cell timings) or any custom consumer.
//
// Emitting an event must never perturb results: sinks only observe, and
// the runner emits outside of any result-bearing computation.
package obs

import (
	"fmt"
	"time"
)

// Kind classifies an Event.
type Kind int

// Event kinds emitted by the experiment runner.
const (
	// KindGridPlan announces that a batch of cells has been scheduled;
	// Event.N is the number of not-yet-cached cells in the batch.
	KindGridPlan Kind = iota
	// KindCellStart marks the beginning of one cell's training.
	KindCellStart
	// KindCellFinish marks the end of one cell's training; Event.Dur is
	// the training wall-clock and Event.Err any training failure.
	KindCellFinish
	// KindCacheHit marks a Predictions call served from the memo cache.
	KindCacheHit
	// KindCacheMiss marks a Predictions call that must train.
	KindCacheMiss
	// KindCellRestored marks a cell loaded from a journal checkpoint
	// instead of being recomputed; Event.Dur is the original training
	// wall-clock recorded in the journal.
	KindCellRestored
	// KindJournalError reports a non-fatal journal problem (corrupt
	// record, unreadable checkpoint, failed append); the run continues
	// and the affected cell is recomputed.
	KindJournalError
	// KindCellRetry reports a transiently failed cell about to be retrained;
	// Event.N is the attempt number that failed and Event.Err the failure.
	KindCellRetry
	// KindCellPanic reports a cell that ultimately failed with a recovered
	// panic (Event.Err carries the structured failure with its stack).
	KindCellPanic
	// KindCellDiverged reports a cell whose training stayed numerically
	// divergent through the trainer's bounded recovery and the runner's
	// retries.
	KindCellDiverged
	// KindCellCancelled reports a cell stopped by cooperative cancellation
	// (interrupt or per-cell timeout) rather than by its own failure.
	KindCellCancelled
	// KindReqAdmit marks an inference request admitted past the serving
	// layer's bounded queue; Event.Key is the request ID.
	KindReqAdmit
	// KindReqShed marks an inference request rejected at admission because
	// the queue was full (load shedding) — the 429 path.
	KindReqShed
	// KindReqDone marks an inference request finishing; Event.Detail
	// carries the achieved quorum as "k/n" and Event.Err any typed
	// failure (quorum floor, for example).
	KindReqDone
	// KindMemberTimeout reports an ensemble member dropped from a vote
	// because it missed its per-member deadline; Event.Member names it.
	KindMemberTimeout
	// KindMemberPanic reports an ensemble member dropped from a vote
	// because its dispatch panicked; Event.Err carries the recovered
	// panic with its stack.
	KindMemberPanic
	// KindMemberError reports an ensemble member dropped from a vote
	// because its dispatch returned an error.
	KindMemberError
	// KindBreakerChange reports a member circuit breaker transition;
	// Event.Member names the member and Event.Detail the transition
	// ("closed→open", "open→half-open", "half-open→closed", …).
	KindBreakerChange
	// KindPoolStats reports a snapshot of the tensor buffer-pool reuse
	// counters in Event.Detail ("pool-hit=… pool-miss=… pool-bytes=…"),
	// emitted by the serving layer's Drain — at shutdown and on every
	// model hot-swap, where Event.Key names the retiring model version —
	// so arena leaks across swaps are observable, not just at exit.
	KindPoolStats
	// KindPublish reports a model version published to the registry;
	// Event.Key is the version label ("v3") and Event.Detail the artifact
	// digest.
	KindPublish
	// KindSwap reports an atomic model hot-swap in the serving layer;
	// Event.Key is the incoming version label and Event.Detail the
	// transition ("v2→v3 digest=sha256:…"). The swap is complete — the old
	// version drained — when the event is emitted.
	KindSwap
	// KindMemberRestart reports the member supervisor reacting to a dead
	// or unhealthy member process: Event.Member names the member, Event.N
	// is the consecutive-failure count, Event.Dur the backoff before the
	// next start attempt, Event.Err the exit or health-probe error, and
	// Event.Detail the phase ("exited", "unhealthy", "start-failed",
	// "restarted").
	KindMemberRestart
	// KindLeaseGrant reports the grid coordinator leasing a cell to a
	// worker: Event.Key is the cell key, Event.Member the worker ID,
	// Event.N the issue attempt (1 for the first lease of a cell), and
	// Event.Detail the lease ID.
	KindLeaseGrant
	// KindLeaseExpire reports a cell lease whose deadline passed without
	// a completion or heartbeat — the holding worker crashed, hung, or
	// was partitioned. Event.Key is the cell key and Event.Member the
	// worker that held the lease.
	KindLeaseExpire
	// KindLeaseReissue reports an expired, released, or rejected cell
	// re-entering the lease queue: Event.Key is the cell key, Event.N the
	// issue attempts so far, Event.Dur the reissue backoff that was
	// applied, and Event.Detail the cause ("expired", "released",
	// "rejected", "worker-failed").
	KindLeaseReissue
	// KindCellFlowback reports a worker-produced cell record durably
	// appended to the coordinator's journal: Event.Key is the cell key,
	// Event.Member the completing worker, Event.Dur the worker's training
	// wall-clock, and Event.Detail the verified prediction digest.
	KindCellFlowback
	// KindWorkerJoin reports the first lease request from a worker ID
	// (or the first after the worker was declared lost); Event.Member
	// names the worker.
	KindWorkerJoin
	// KindWorkerLost reports a worker declared lost because a lease it
	// held expired; Event.Member names the worker. A later lease request
	// from the same ID re-joins it.
	KindWorkerLost
)

// String returns a stable lower-case name for the kind.
func (k Kind) String() string {
	switch k {
	case KindGridPlan:
		return "grid-plan"
	case KindCellStart:
		return "cell-start"
	case KindCellFinish:
		return "cell-finish"
	case KindCacheHit:
		return "cache-hit"
	case KindCacheMiss:
		return "cache-miss"
	case KindCellRestored:
		return "cell-restored"
	case KindJournalError:
		return "journal-error"
	case KindCellRetry:
		return "cell-retry"
	case KindCellPanic:
		return "cell-panic"
	case KindCellDiverged:
		return "cell-diverged"
	case KindCellCancelled:
		return "cell-cancelled"
	case KindReqAdmit:
		return "req-admit"
	case KindReqShed:
		return "req-shed"
	case KindReqDone:
		return "req-done"
	case KindMemberTimeout:
		return "member-timeout"
	case KindMemberPanic:
		return "member-panic"
	case KindMemberError:
		return "member-error"
	case KindBreakerChange:
		return "breaker-change"
	case KindPoolStats:
		return "pool-stats"
	case KindPublish:
		return "publish"
	case KindSwap:
		return "swap"
	case KindMemberRestart:
		return "member-restart"
	case KindLeaseGrant:
		return "lease-grant"
	case KindLeaseExpire:
		return "lease-expire"
	case KindLeaseReissue:
		return "lease-reissue"
	case KindCellFlowback:
		return "cell-flowback"
	case KindWorkerJoin:
		return "worker-join"
	case KindWorkerLost:
		return "worker-lost"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one structured progress notification from the experiment
// runner or the serving layer. Only the fields relevant to the Kind are
// populated.
type Event struct {
	Kind Kind
	// Key is the cell key for cell-scoped events and the request ID for
	// serving-layer events.
	Key string
	// Dur is the training wall-clock for KindCellFinish and
	// KindCellRestored.
	Dur time.Duration
	// N is the scheduled-cell count for KindGridPlan and the failed
	// attempt number for KindCellRetry.
	N int
	// Err carries the failure for KindJournalError, failed KindCellFinish,
	// and the cell-failure kinds (retry, panic, diverged, cancelled), plus
	// serving-layer member failures and failed KindReqDone.
	Err error
	// Member names the ensemble member for the serving layer's member and
	// breaker events, and the worker ID for the distributed grid's lease
	// and worker events.
	Member string
	// Detail is a short structured annotation: the achieved quorum "k/n"
	// on KindReqDone, the state transition on KindBreakerChange.
	Detail string
}

// Sink consumes runner and serving-layer events. Implementations must be
// safe for concurrent use: grid cells finish on multiple workers, and
// concurrent inference requests emit interleaved — though per request ID
// internally ordered — event sequences.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit calls f(e).
func (f SinkFunc) Emit(e Event) { f(e) }

// Sinks fans every event out to each member in order.
type Sinks []Sink

// Emit forwards e to every member sink.
func (s Sinks) Emit(e Event) {
	for _, sink := range s {
		sink.Emit(e)
	}
}
