package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withBudget runs the test body with a fixed budget and restores the
// default afterwards (the budget is process-global).
func withBudget(t *testing.T, n int, body func()) {
	t.Helper()
	SetBudget(n)
	defer SetBudget(0)
	body()
}

func TestBudgetAccounting(t *testing.T) {
	withBudget(t, 4, func() {
		if Budget() != 4 {
			t.Fatalf("budget %d, want 4", Budget())
		}
		g1 := TryAcquire(2)
		if g1 != 2 {
			t.Fatalf("first acquire granted %d, want 2", g1)
		}
		g2 := TryAcquire(5)
		if g2 != 1 {
			t.Fatalf("second acquire granted %d, want the remaining 1", g2)
		}
		if g := TryAcquire(1); g != 0 {
			t.Fatalf("exhausted budget granted %d", g)
		}
		Release(g1)
		Release(g2)
		if g := TryAcquire(3); g != 3 {
			t.Fatalf("after release granted %d, want 3", g)
		}
		Release(3)
	})
}

func TestTryAcquireEdgeCases(t *testing.T) {
	withBudget(t, 1, func() {
		if g := TryAcquire(4); g != 0 {
			t.Fatalf("budget 1 must grant no extra workers, got %d", g)
		}
	})
	if g := TryAcquire(0); g != 0 {
		t.Fatalf("TryAcquire(0) = %d", g)
	}
	if g := TryAcquire(-3); g != 0 {
		t.Fatalf("TryAcquire(-3) = %d", g)
	}
	Release(0) // must be a no-op
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	withBudget(t, 8, func() {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 97, 1000} {
			hits := make([]int32, n)
			For(n, 8, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d: index %d visited %d times", n, i, h)
				}
			}
		}
	})
}

func TestForSerialWhenBudgetSpent(t *testing.T) {
	withBudget(t, 4, func() {
		g := TryAcquire(3)
		if g != 3 {
			t.Fatalf("setup acquire got %d", g)
		}
		defer Release(g)
		covered := 0
		For(100, 4, func(lo, hi int) { covered += hi - lo })
		if covered != 100 {
			t.Fatalf("serial fallback covered %d of 100", covered)
		}
	})
}

func TestNestedForNeverExceedsBudget(t *testing.T) {
	const total = 3
	withBudget(t, total, func() {
		var active, peak atomic.Int64
		enter := func() {
			a := active.Add(1)
			for {
				p := peak.Load()
				if a <= p || peak.CompareAndSwap(p, a) {
					break
				}
			}
		}
		var wg sync.WaitGroup
		// Two concurrent top-level fan-outs, each nesting another For.
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				For(64, 4, func(lo, hi int) {
					enter()
					defer active.Add(-1)
					For(hi-lo, 4, func(_, _ int) {})
				})
			}()
		}
		wg.Wait()
		// Two caller goroutines plus at most total-1 extra workers.
		if p := peak.Load(); p > total+1 {
			t.Fatalf("peak concurrency %d exceeds budget headroom", p)
		}
	})
}

func TestRunExecutesAllTasks(t *testing.T) {
	withBudget(t, 4, func() {
		var done [9]atomic.Int32
		tasks := make([]func(), len(done))
		for i := range tasks {
			i := i
			tasks[i] = func() { done[i].Add(1) }
		}
		Run(tasks...)
		for i := range done {
			if done[i].Load() != 1 {
				t.Fatalf("task %d ran %d times", i, done[i].Load())
			}
		}
	})
	Run() // no tasks: must not panic
}

func TestRunSerialOrderWithoutBudget(t *testing.T) {
	withBudget(t, 1, func() {
		var order []int
		Run(
			func() { order = append(order, 0) },
			func() { order = append(order, 1) },
			func() { order = append(order, 2) },
		)
		for i, v := range order {
			if i != v {
				t.Fatalf("serial Run out of order: %v", order)
			}
		}
		if len(order) != 3 {
			t.Fatalf("serial Run executed %d tasks", len(order))
		}
	})
}

// recoverPanicError runs body expecting a panic and returns it as a
// *PanicError (nil if body returned normally).
func recoverPanicError(t *testing.T, body func()) (pe *PanicError) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			var ok bool
			if pe, ok = v.(*PanicError); !ok {
				t.Fatalf("re-panicked value is %T, want *PanicError", v)
			}
		}
	}()
	body()
	return nil
}

func TestRunIsolatesWorkerPanic(t *testing.T) {
	withBudget(t, 4, func() {
		var ran atomic.Int64
		tasks := make([]func(), 6)
		for i := range tasks {
			i := i
			tasks[i] = func() {
				if i == 2 {
					panic("task 2 exploded")
				}
				ran.Add(1)
			}
		}
		pe := recoverPanicError(t, func() { Run(tasks...) })
		if pe == nil {
			t.Fatal("worker panic was swallowed")
		}
		if pe.Value != "task 2 exploded" {
			t.Fatalf("panic value %v", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("panic carries no worker stack")
		}
		// Panic isolation: the sibling tasks all still ran.
		if ran.Load() != 5 {
			t.Fatalf("%d sibling tasks ran, want 5", ran.Load())
		}
		if InUse() != 0 {
			t.Fatalf("budget leaked: %d slots in use after panic", InUse())
		}
	})
}

func TestRunRepanicsLowestIndexDeterministically(t *testing.T) {
	withBudget(t, 4, func() {
		for trial := 0; trial < 20; trial++ {
			pe := recoverPanicError(t, func() {
				Run(
					func() { panic("first") },
					func() {},
					func() { panic("third") },
				)
			})
			if pe == nil || pe.Value != "first" {
				t.Fatalf("trial %d: surfaced %v, want the lowest-indexed panic", trial, pe)
			}
		}
	})
}

func TestRunSerialPathIsolatesPanic(t *testing.T) {
	withBudget(t, 1, func() {
		var ran int
		pe := recoverPanicError(t, func() {
			Run(func() { panic("inline") }, func() { ran++ })
		})
		if pe == nil || pe.Value != "inline" {
			t.Fatalf("serial panic not surfaced: %v", pe)
		}
		if ran != 1 {
			t.Fatal("serial sibling task skipped after panic")
		}
	})
}

func TestForIsolatesShardPanic(t *testing.T) {
	withBudget(t, 4, func() {
		const n = 64
		touched := make([]int32, n)
		pe := recoverPanicError(t, func() {
			For(n, 4, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&touched[i], 1)
				}
				if lo == 0 {
					panic("shard 0")
				}
			})
		})
		if pe == nil || pe.Value != "shard 0" {
			t.Fatalf("shard panic not surfaced: %v", pe)
		}
		for i, c := range touched {
			if c != 1 {
				t.Fatalf("index %d visited %d times; sibling shards must complete", i, c)
			}
		}
		if InUse() != 0 {
			t.Fatalf("budget leaked: %d slots in use after panic", InUse())
		}
	})
}

func TestAsPanicErrorPassthrough(t *testing.T) {
	orig := &PanicError{Value: "x", Stack: []byte("s")}
	if AsPanicError(orig) != orig {
		t.Fatal("AsPanicError rewrapped an existing PanicError")
	}
	wrapped := AsPanicError("raw")
	if wrapped.Value != "raw" || len(wrapped.Stack) == 0 {
		t.Fatalf("AsPanicError(raw) = %+v", wrapped)
	}
}

// waitInUse polls until InUse() == want or the timeout passes, and
// reports whether it got there.
func waitInUse(want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for InUse() != want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestRunReturnsIdleSlots pins Run's early hand-back: once the queue is
// empty, a worker with nothing left to run returns its slot while the
// last task is still running, so that task's kernels can use the freed
// core. Holding the slot until Run returns would leave the last task
// waiting out the timeout.
func TestRunReturnsIdleSlots(t *testing.T) {
	withBudget(t, 2, func() {
		var freed bool
		Run(func() {}, func() { freed = waitInUse(0, 5*time.Second) })
		if !freed {
			t.Fatal("the last task never saw the idle worker's slot returned (InUse stayed 1)")
		}
		if g := InUse(); g != 0 {
			t.Fatalf("InUse() = %d after Run, want 0", g)
		}
	})
}
