package experiment

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdfm/internal/faultinject"
	"tdfm/internal/obs"
	"tdfm/internal/parallel"
)

// cannedExec is a CellExecutor that trains nothing: it hands every call
// to onCall (when set) and returns all-zero predictions for the cell's
// test set. Scheduler tests use it to watch warm's order and budget
// without paying for training.
type cannedExec struct {
	r      *Runner
	onCall func(n int, spec CellSpec) // n counts calls from 1
	calls  atomic.Int64
}

func (c *cannedExec) ExecuteCell(_ string, spec CellSpec) ([]int, time.Duration, error) {
	n := int(c.calls.Add(1))
	if c.onCall != nil {
		c.onCall(n, spec)
	}
	_, test, err := c.r.Dataset(spec.Dataset)
	if err != nil {
		return nil, 0, err
	}
	return make([]int, test.Len()), time.Millisecond, nil
}

// cannedRunner is a one-rep, two-worker runner whose cells all go to a
// cannedExec calling onCall.
func cannedRunner(onCall func(n int, spec CellSpec)) (*Runner, *cannedExec) {
	r := fastRunner(1)
	r.Workers = 2
	exec := &cannedExec{r: r, onCall: onCall}
	r.Remote = exec
	return r, exec
}

// TestFigure3IsOnePlan pins that a figure schedules every panel's cells
// as one plan: exactly one grid-plan event announces cells, and it
// announces the whole fig3 grid (4 panels × 16 cells + 3 ensemble cells,
// which the panels share).
func TestFigure3IsOnePlan(t *testing.T) {
	r, exec := cannedRunner(nil)
	var mu sync.Mutex
	var plans []int
	r.Sink = obs.SinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindGridPlan && e.N > 0 {
			mu.Lock()
			plans = append(plans, e.N)
			mu.Unlock()
		}
	})
	if _, err := r.Figure3(faultinject.Mislabel, nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0] != 67 {
		t.Fatalf("grid plans with cells: %v, want exactly one of 67", plans)
	}
	if n := exec.calls.Load(); n != 67 {
		t.Fatalf("executor ran %d cells, want 67", n)
	}
}

// TestWarmStartsCostlyCellsFirst pins warm's order. With every call held
// until the test lets it go, the two workers' first cells are an
// ensemble cell (the costly end) and the plan's first cell, its first
// golden model (the cheap end). Each ensemble cell the test then
// releases frees its worker for the next ensemble cell: all three start
// before any other costly cell.
func TestWarmStartsCostlyCellsFirst(t *testing.T) {
	type call struct {
		spec    CellSpec
		release chan struct{}
	}
	started := make(chan call, 67)
	releaseAll := make(chan struct{})
	r, _ := cannedRunner(func(_ int, spec CellSpec) {
		c := call{spec, make(chan struct{})}
		started <- c
		select {
		case <-c.release:
		case <-releaseAll:
		}
	})
	done := make(chan error, 1)
	go func() {
		_, err := r.Figure3(faultinject.Mislabel, nil, nil)
		done <- err
	}()
	defer func() {
		close(releaseAll)
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	next := func() call {
		select {
		case c := <-started:
			return c
		case <-time.After(30 * time.Second):
			t.Fatal("no cell started within 30s")
			return call{}
		}
	}
	first, second := next(), next()
	if first.spec.Technique != "ens" {
		first, second = second, first
	}
	if first.spec.Technique != "ens" {
		t.Fatalf("first two cells are %+v and %+v, want one ens", first.spec, second.spec)
	}
	if s := second.spec; s.Technique != "base" || s.Arch != "resnet50" || len(s.Specs) != 0 {
		t.Errorf("cheap end started %+v, want the plan's first cell (base resnet50, clean)", s)
	}
	ens := first
	for i := 2; i <= 3; i++ {
		close(ens.release)
		ens = next()
		if ens.spec.Technique != "ens" {
			t.Fatalf("costly end's cell %d is %+v, want ens", i, ens.spec)
		}
	}
}

// TestWarmReturnsIdleSlot pins warm's early hand-back: once no cell is
// left to start, the worker that finds the queue empty returns its
// budget slot while the last cell is still running, so that cell's
// kernels can use the freed core.
func TestWarmReturnsIdleSlot(t *testing.T) {
	withPoolBudget(t, 2, func() {
		// One panel without label correction: 6 cells.
		const cells = 6
		var freed atomic.Bool
		r, exec := cannedRunner(func(n int, _ CellSpec) {
			if n != cells {
				return
			}
			deadline := time.Now().Add(10 * time.Second)
			for parallel.InUse() != 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			freed.Store(parallel.InUse() == 0)
		})
		if _, err := r.Figure3(faultinject.Remove, []string{"convnet"}, []float64{0.5}); err != nil {
			t.Fatal(err)
		}
		if n := exec.calls.Load(); n != cells {
			t.Fatalf("executor ran %d cells, want %d", n, cells)
		}
		if !freed.Load() {
			t.Fatal("the last cell never saw the idle worker's slot returned (InUse stayed 1)")
		}
	})
}
