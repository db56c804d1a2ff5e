package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestKindString(t *testing.T) {
	kinds := []Kind{KindGridPlan, KindCellStart, KindCellFinish, KindCacheHit,
		KindCacheMiss, KindCellRestored, KindJournalError,
		KindCellRetry, KindCellPanic, KindCellDiverged, KindCellCancelled,
		KindReqAdmit, KindReqShed, KindReqDone, KindMemberTimeout,
		KindMemberPanic, KindMemberError, KindBreakerChange,
		KindPoolStats, KindPublish, KindSwap, KindMemberRestart}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") || seen[s] {
			t.Errorf("kind %d has bad or duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(Kind(99).String(), "kind(") {
		t.Error("unknown kind should render as kind(n)")
	}
}

func TestSinksFanOut(t *testing.T) {
	var got []string
	mk := func(tag string) Sink {
		return SinkFunc(func(e Event) { got = append(got, tag+":"+e.Kind.String()) })
	}
	s := Sinks{mk("a"), mk("b")}
	s.Emit(Event{Kind: KindCellStart})
	if len(got) != 2 || got[0] != "a:cell-start" || got[1] != "b:cell-start" {
		t.Fatalf("fan-out got %v", got)
	}
}

func TestProgressLine(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	w := lockedWriter{mu: &mu, b: &buf}
	p := NewProgress(w, 0, 2)
	p.Emit(Event{Kind: KindGridPlan, N: 3})
	p.Emit(Event{Kind: KindCellRestored, Dur: time.Second})
	p.Emit(Event{Kind: KindCacheHit})
	p.Emit(Event{Kind: KindCellFinish, Dur: 2 * time.Second})
	p.Flush()
	out := buf.String()
	for _, want := range []string{"progress: 2/3 cells", "(1 restored)", "cache hits 1", "pool ", "avg 2s/cell", "ETA "} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAILED") {
		t.Errorf("no failures occurred, output: %s", out)
	}
}

func TestProgressReportsFailures(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	p := NewProgress(lockedWriter{mu: &mu, b: &buf}, 0, 1)
	p.Emit(Event{Kind: KindCellFinish, Err: errors.New("boom")})
	p.Emit(Event{Kind: KindJournalError, Err: errors.New("disk full")})
	p.Flush()
	out := buf.String()
	if !strings.Contains(out, "1 FAILED") || !strings.Contains(out, "journal warning: disk full") {
		t.Fatalf("failure reporting missing from:\n%s", out)
	}
}

// lockedWriter serializes writes for the race detector; Progress callers
// may emit from many goroutines.
type lockedWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func TestHeartbeat(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	stop := Heartbeat(lockedWriter{mu: &mu, b: &buf}, "working", 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := buf.Len()
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // stopping twice must be safe
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "working … elapsed") {
		t.Fatalf("heartbeat output %q", out)
	}
}
