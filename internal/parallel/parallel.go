// Package parallel owns the process-wide worker budget shared by every
// layer of the system that fans work out to goroutines: tensor kernels
// shard matrix rows, core trains ensemble members concurrently, and the
// experiment runner executes independent grid cells on a worker pool.
//
// The budget counts workers including the goroutine that initiates a
// fan-out, so a budget of N never adds more than N-1 goroutines at once no
// matter how the layers nest. Fan-out sites request extra workers with
// TryAcquire, which never blocks: when the budget is exhausted (for
// example, a matrix product inside an ensemble member inside an experiment
// cell), the site simply runs its work inline on the calling goroutine.
// Because every site always makes progress on its own goroutine, nesting
// cannot deadlock; and because every sharding in this repository is
// result-invariant (each output region is written by exactly one worker,
// with the same per-element accumulation order as the serial loop), the
// number of workers granted never changes a computed value — only
// wall-clock time.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered from a pooled worker goroutine, carrying
// the panicking goroutine's stack. For and Run convert worker panics into
// PanicErrors and re-panic them on the calling goroutine once every worker
// has finished, so a panic inside a shard or task unwinds the caller (where
// it can be recovered and classified — the experiment runner turns it into
// a structured cell failure) instead of killing the whole process from an
// anonymous goroutine.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error formats the panic value with its originating stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n\nworker stack:\n%s", e.Value, e.Stack)
}

// AsPanicError unwraps v (a recovered panic value) to a *PanicError,
// wrapping raw values so callers always get the stack of the original
// panic: a re-panicked PanicError keeps its worker stack, a direct panic
// gets the current goroutine's.
func AsPanicError(v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// capture runs fn and records a recovered panic into slot (used by For and
// Run to collect worker panics deterministically by index).
func capture(fn func(), slot **PanicError) {
	defer func() {
		if v := recover(); v != nil {
			*slot = AsPanicError(v)
		}
	}()
	fn()
}

var (
	mu     sync.Mutex
	budget = runtime.GOMAXPROCS(0) // total workers, including callers
	inUse  int                     // extra-worker slots currently granted
)

// SetBudget sets the total worker budget, including calling goroutines.
// n <= 0 resets to runtime.GOMAXPROCS(0); n == 1 disables all fan-out.
// Slots already granted are unaffected (the new budget applies as they are
// released). Tests may raise the budget above GOMAXPROCS to force
// concurrency on small machines.
func SetBudget(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	mu.Lock()
	budget = n
	mu.Unlock()
}

// Budget returns the current total worker budget.
func Budget() int {
	mu.Lock()
	defer mu.Unlock()
	return budget
}

// InUse returns the number of extra-worker slots currently granted (pool
// occupancy). Observability sinks sample it to report how busy the shared
// budget is; 0 means every fan-out site is currently running inline.
func InUse() int {
	mu.Lock()
	defer mu.Unlock()
	return inUse
}

// TryAcquire grants up to k extra-worker slots without blocking and
// returns how many were granted (possibly 0). Every granted slot must be
// returned with Release.
func TryAcquire(k int) int {
	if k <= 0 {
		return 0
	}
	mu.Lock()
	defer mu.Unlock()
	free := budget - 1 - inUse
	if free <= 0 {
		return 0
	}
	if k > free {
		k = free
	}
	inUse += k
	return k
}

// Release returns k previously granted extra-worker slots.
func Release(k int) {
	if k <= 0 {
		return
	}
	mu.Lock()
	inUse -= k
	if inUse < 0 {
		inUse = 0
	}
	mu.Unlock()
}

// For runs fn over [0, n) split into at most maxShards contiguous ranges,
// one range per worker. Extra workers beyond the caller are drawn from the
// budget with TryAcquire, so For degrades to a single inline fn(0, n) call
// when the budget is spent. fn must write only state owned by its [lo, hi)
// range; under that contract the result is identical for any worker count.
//
// A panic in any shard is isolated: every shard still runs to completion
// (their outputs are independent), and For then re-panics the
// lowest-indexed shard's panic on the calling goroutine as a *PanicError
// carrying the worker stack. The choice of re-panicked shard is by index,
// not by timing, so the surfaced failure is schedule-independent.
func For(n, maxShards int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := maxShards
	if w > n {
		w = n
	}
	if w < 2 {
		fn(0, n)
		return
	}
	granted := TryAcquire(w - 1)
	if granted == 0 {
		fn(0, n)
		return
	}
	defer Release(granted)
	w = granted + 1
	panics := make([]*PanicError, w)
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for s := 1; s < w; s++ {
		lo, hi, slot := s*n/w, (s+1)*n/w, &panics[s]
		go func() {
			defer wg.Done()
			capture(func() { fn(lo, hi) }, slot)
		}()
	}
	capture(func() { fn(0, n/w) }, &panics[0])
	wg.Wait()
	for _, pe := range panics {
		if pe != nil {
			panic(pe)
		}
	}
}

// Run executes the tasks, running up to Budget() of them concurrently.
// The calling goroutine always participates; with no budget available the
// tasks run serially inline, in order. Tasks must be independent. A
// worker that finds no task left returns its slot at once, not when Run
// returns.
//
// A panic in any task is isolated: the remaining tasks still run (they
// share no state), and Run then re-panics the lowest-indexed task's panic
// on the calling goroutine as a *PanicError carrying the worker stack —
// one crashing ensemble member can therefore never take down its siblings
// or the process, and the surfaced failure is schedule-independent.
func Run(tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	panics := make([]*PanicError, len(tasks))
	rethrow := func() {
		for _, pe := range panics {
			if pe != nil {
				panic(pe)
			}
		}
	}
	granted := TryAcquire(len(tasks) - 1)
	if granted == 0 {
		for i, task := range tasks {
			capture(task, &panics[i])
		}
		rethrow()
		return
	}
	var next, held atomic.Int64
	held.Store(int64(granted)) // slots not yet handed back
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(tasks) {
				break
			}
			capture(tasks[i], &panics[i])
		}
		// The queue is empty: hand a slot back now, so the tasks still
		// running can shard their kernels onto the freed core. The last
		// worker to finish runs on the caller's own slot.
		if held.Add(-1) >= 0 {
			Release(1)
		}
	}
	var wg sync.WaitGroup
	wg.Add(granted)
	for s := 0; s < granted; s++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	rethrow()
}
