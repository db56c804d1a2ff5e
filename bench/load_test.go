package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTarget serves /predict answers of class 3, calling hook first with
// the request's 1-based number.
func fakeTarget(t *testing.T, hook func(n int64)) *target {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hook(n.Add(1))
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"predictions":[3],"quorum":"5/5"}`))
	}))
	t.Cleanup(srv.Close)
	tg := &target{client: newClient(1), url: srv.URL, bodies: [][]byte{[]byte(`{}`)}, want: [][]int{{3}}}
	t.Cleanup(tg.client.CloseIdleConnections)
	return tg
}

// TestOpenLoopCountsStallAgainstQueuedRequests is the coordinated-omission
// check: one 50 ms stall must show in the latency of every request that
// was due during it, because latency runs from the due time.
func TestOpenLoopCountsStallAgainstQueuedRequests(t *testing.T) {
	const stall = 50 * time.Millisecond
	tg := fakeTarget(t, func(n int64) {
		if n == 5 {
			time.Sleep(stall)
		}
	})
	var schedule []time.Duration
	for d := time.Duration(0); d < 200*time.Millisecond; d += 2 * time.Millisecond {
		schedule = append(schedule, d)
	}
	var next atomic.Int64
	rep, lags := openLoop(tg, 1, schedule, &next)
	if rep.err != nil {
		t.Fatal(rep.err)
	}
	if len(rep.samples) != len(schedule) || len(lags) != len(schedule) {
		t.Fatalf("got %d samples and %d lags for %d arrivals", len(rep.samples), len(lags), len(schedule))
	}
	// The requests due in the first 30 ms after the stall began waited at
	// least 20 ms each; a closed loop would have recorded one slow sample.
	slow := 0
	worst := 0.0
	for _, s := range rep.samples {
		if !s.ok {
			t.Fatalf("unexpected failed sample %+v", s)
		}
		if s.latMS >= 20 {
			slow++
		}
		worst = max(worst, s.latMS)
	}
	if slow < 10 {
		t.Errorf("%d samples ≥ 20 ms, want ≥ 10: queued requests must carry the stall", slow)
	}
	if worst < ms(stall) {
		t.Errorf("worst latency %.1f ms, want ≥ %v", worst, stall)
	}
}

func TestSendRejectsWrongPrediction(t *testing.T) {
	tg := fakeTarget(t, func(int64) {})
	tg.want = [][]int{{4}}
	ok, err := tg.send(0)
	if ok || err == nil {
		t.Fatalf("a wrong prediction must fail: ok=%v err=%v", ok, err)
	}
	var next atomic.Int64
	rep := closedLoop(tg, 1, 20*time.Millisecond, &next)
	if len(rep.samples) == 0 || rep.samples[0].ok || percentile([]float64{rep.samples[0].latMS}, 50) < 1e300 {
		t.Fatalf("failed samples must be counted with infinite latency, got %+v", rep.samples)
	}
}

func TestGeneratorLagInvalidation(t *testing.T) {
	lags := make([]float64, 200)
	for i := range lags {
		lags[i] = 0.05
	}
	if why := lagInvalid(lags); why != "" {
		t.Errorf("on-time generator marked invalid: %s", why)
	}
	lags[0] = 30 // one late wake-up out of 200 stays under the p99
	if why := lagInvalid(lags); why != "" {
		t.Errorf("a single late wake-up marked invalid: %s", why)
	}
	for i := 1; i < 4; i++ {
		lags[i] = ms(maxGenLag) + 0.5
	}
	if why := lagInvalid(lags); why == "" {
		t.Errorf("lag p99 above %v must mark the run invalid", maxGenLag)
	}
}

func TestArrivalsAreSeededAndWithinDuration(t *testing.T) {
	a := arrivals(newRand(7), 150, 10*time.Second)
	b := arrivals(newRand(7), 150, 10*time.Second)
	if len(a) != 1500 || len(b) != 1500 {
		t.Fatalf("got %d and %d arrivals for 150/s over 10 s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || a[i] >= 10*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}
