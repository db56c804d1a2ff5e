package serve

import (
	"errors"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdfm/internal/chaos"
	"tdfm/internal/obs"
)

// hotServer builds one generation over fiveMembers with a version tag.
func hotServer(t *testing.T, version int, digest string, sink obs.Sink) *Server {
	t.Helper()
	s, err := New(fiveMembers(), 3, Options{
		Clock: chaos.NewFake(), Input: [3]int{1, 2, 2},
		QueueCapacity: 256,
		Model:         ModelInfo{Version: version, Digest: digest},
		Sink:          sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestModelInfoLabel pins the label format and the zero value.
func TestModelInfoLabel(t *testing.T) {
	if got := (ModelInfo{Version: 3}).Label(); got != "v3" {
		t.Fatalf("label = %q, want v3", got)
	}
	if got := (ModelInfo{Version: 120}).Label(); got != "v120" {
		t.Fatalf("label = %q, want v120", got)
	}
	if got := (ModelInfo{}).Label(); got != "" {
		t.Fatalf("zero label = %q, want empty", got)
	}
}

// TestHotSwapUnderLoadDropsNothing pins the swap guarantee: with
// concurrent requests hammering the front through two hot swaps, every
// request succeeds — none is shed, none sees ErrDraining — and the
// retiring versions' pool-stats plus the swap events are emitted in
// order.
func TestHotSwapUnderLoadDropsNothing(t *testing.T) {
	sink := &memoSink{}
	h := NewHot(hotServer(t, 1, "sha256:d1", sink))

	const workers = 8
	stop := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := h.Predict(batch())
				if err != nil {
					errs <- err
					return
				}
				if res.Pred[0] != 1 {
					errs <- errors.New("vote changed under swap")
					return
				}
			}
		}()
	}

	h.Swap(hotServer(t, 2, "sha256:d2", sink))
	h.Swap(hotServer(t, 3, "sha256:d3", sink))
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("request failed during swap: %v", err)
	default:
	}
	if got := h.Server().opts.Model.Version; got != 3 {
		t.Fatalf("serving version = %d, want 3", got)
	}

	// Each swap retires one version: its pool-stats snapshot is tagged
	// with the retiring label and the swap event carries the transition.
	// (Key collides across kinds — the v1→v2 swap event and v2's later
	// retirement snapshot both carry "v2" — so filter by kind too.)
	byKind := func(key string, kind obs.Kind) []obs.Event {
		var out []obs.Event
		for _, e := range sink.forKey(key) {
			if e.Kind == kind {
				out = append(out, e)
			}
		}
		return out
	}
	for _, want := range []struct{ retiring, incoming, detail string }{
		{"v1", "v2", "v1→v2 digest=sha256:d2"},
		{"v2", "v3", "v2→v3 digest=sha256:d3"},
	} {
		if stats := byKind(want.retiring, obs.KindPoolStats); len(stats) != 1 {
			t.Fatalf("pool-stats for %s: %+v", want.retiring, stats)
		}
		swaps := byKind(want.incoming, obs.KindSwap)
		if len(swaps) != 1 || swaps[0].Detail != want.detail {
			t.Fatalf("swap event for %s: %+v", want.incoming, swaps)
		}
	}
}

// TestHotSwapWaitsForPinnedRequests pins the ordering contract: a
// request in flight on the old generation completes successfully before
// the swap retires it — the swap blocks, the request never observes
// ErrDraining.
func TestHotSwapWaitsForPinnedRequests(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	clk := chaos.NewFake()
	sink := &memoSink{}
	old, err := New(fiveMembers(), 3, Options{
		Clock: clk, MemberDeadline: 100 * time.Millisecond,
		Model: ModelInfo{Version: 1, Digest: "sha256:d1"}, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHot(old)

	// Park request 1 on the old generation: every member sleeps fake time.
	chaos.Arm("serve/member", "", chaos.Action{Delay: 50 * time.Millisecond})
	predDone := make(chan error, 1)
	go func() {
		_, err := h.Predict(batch())
		predDone <- err
	}()
	clk.BlockUntil(6) // 5 member sleeps + deadline timer

	next := hotServer(t, 2, "sha256:d2", sink)
	swapDone := make(chan struct{})
	go func() {
		h.Swap(next)
		close(swapDone)
	}()
	// Swap installs the new generation before blocking on the old one's
	// in-flight requests; wait for the install so the probe below cannot
	// land on the old generation (whose member mutexes are held by the
	// sleeping request).
	for h.Server() != next {
		runtime.Gosched()
	}

	// The new generation serves immediately while the swap waits.
	chaos.Reset()
	if _, err := h.Predict(batch()); err != nil {
		t.Fatalf("request on new generation during swap: %v", err)
	}
	select {
	case <-swapDone:
		t.Fatal("swap completed while a request was pinned to the old generation")
	case err := <-predDone:
		t.Fatalf("pinned request finished early: %v", err)
	default:
	}

	clk.Advance(50 * time.Millisecond)
	if err := <-predDone; err != nil {
		t.Fatalf("pinned request failed across swap: %v", err)
	}
	<-swapDone
	if !old.Draining() {
		t.Fatal("old generation not drained after swap")
	}
}

// TestHotHandlerReportsModelAndQuorum pins /healthz through the hot
// front: model version, label, digest, and the dispatchable quorum.
func TestHotHandlerReportsModelAndQuorum(t *testing.T) {
	h := NewHot(hotServer(t, 7, "sha256:abcd", nil))
	handler := h.Handler()

	var resp HealthResponse
	rec := doJSON(t, handler, http.MethodGet, "/healthz", "", &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	if resp.Model == nil || resp.Model.Version != 7 || resp.Model.Label != "v7" || resp.Model.Digest != "sha256:abcd" {
		t.Fatalf("healthz model = %+v", resp.Model)
	}
	if resp.Quorum != "5/5" {
		t.Fatalf("healthz quorum = %q, want 5/5", resp.Quorum)
	}

	// After a swap the same handler reports the new version.
	h.Swap(hotServer(t, 8, "sha256:efgh", nil))
	resp = HealthResponse{}
	doJSON(t, handler, http.MethodGet, "/healthz", "", &resp)
	if resp.Model == nil || resp.Model.Version != 8 {
		t.Fatalf("post-swap healthz model = %+v", resp.Model)
	}
}

// TestHotDrainRetiresCurrentGeneration pins shutdown through the front:
// Drain refuses subsequent requests with ErrDraining.
func TestHotDrainRetiresCurrentGeneration(t *testing.T) {
	h := NewHot(hotServer(t, 1, "sha256:d1", nil))
	if _, err := h.Predict(batch()); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	if _, err := h.Predict(batch()); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain err = %v, want ErrDraining", err)
	}
}

// TestHotDrainReturnsUnderSustainedLoad pins shutdown under load: while
// clients keep sending, Drain still returns — late arrivals must not
// join the wait it is blocked on — and every request after it fails
// with ErrDraining.
func TestHotDrainReturnsUnderSustainedLoad(t *testing.T) {
	h := NewHot(hotServer(t, 1, "sha256:d1", nil))

	const workers = 4
	stop := make(chan struct{})
	defer close(stop)
	var served atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := h.Predict(batch())
				switch {
				case errors.Is(err, ErrDraining):
					return
				case err != nil:
					errs <- err
					return
				}
				served.Add(1)
			}
		}()
	}
	for served.Load() < 100 {
		runtime.Gosched()
	}

	drained := make(chan struct{})
	go func() {
		h.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return while clients kept sending")
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("request failed before the drain refused it: %v", err)
	default:
	}
	if _, err := h.Predict(batch()); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain err = %v, want ErrDraining", err)
	}
}
