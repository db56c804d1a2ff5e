package serve

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"tdfm/internal/chaos"
	"tdfm/internal/core"
	"tdfm/internal/data"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// realMembers builds an ensemble of real (untrained) study networks
// through core's constructors, one per listed architecture.
func realMembers(tb testing.TB, archs ...string) []Member {
	tb.Helper()
	ds := &data.Dataset{
		X:          tensor.New(1, 1, 8, 8),
		Labels:     []int{0},
		NumClasses: 3,
		Name:       "serve-real",
	}
	ms := make([]Member, len(archs))
	for i, arch := range archs {
		clf, err := core.NewUntrained(
			core.Config{Arch: arch, WidthMult: 0.25},
			ds, xrand.New(uint64(31+i)).Split(arch))
		if err != nil {
			tb.Fatal(err)
		}
		ms[i] = Member{Name: arch, Clf: clf}
	}
	return ms
}

// stubClf is a deterministic, stateless member: it emits the same
// probability row (exact binary fractions) for every input row.
type stubClf struct{ row []float64 }

func (f stubClf) PredictProbs(x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	out := tensor.New(n, len(f.row))
	for i := 0; i < n; i++ {
		out.SetRow(i, f.row)
	}
	return out
}

func (f stubClf) Predict(x *tensor.Tensor) []int {
	return f.PredictProbs(x).ArgMaxRows()
}

// fiveMembers builds the standard test ensemble: members 0–3 vote class
// 1, member 4 votes class 2, so any quorum of three or more containing
// two of the first four still answers class 1 — the degraded vote
// matches the full vote.
func fiveMembers() []Member {
	return []Member{
		{Name: "alpha", Clf: stubClf{row: []float64{0.25, 0.5, 0.25}}},
		{Name: "bravo", Clf: stubClf{row: []float64{0.25, 0.5, 0.25}}},
		{Name: "hangs", Clf: stubClf{row: []float64{0.25, 0.5, 0.25}}},
		{Name: "crash", Clf: stubClf{row: []float64{0.25, 0.5, 0.25}}},
		{Name: "echo", Clf: stubClf{row: []float64{0.25, 0.25, 0.5}}},
	}
}

// batch returns a 2-row input batch (contents ignored by stubs).
func batch() *tensor.Tensor { return tensor.New(2, 1, 2, 2) }

func TestPredictFullQuorum(t *testing.T) {
	s, err := New(fiveMembers(), 3, Options{Clock: chaos.NewFake(), Input: [3]int{1, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Predict(batch())
	if err != nil {
		t.Fatal(err)
	}
	if res.Quorum != 5 || res.Members != 5 {
		t.Fatalf("quorum = %d/%d, want 5/5", res.Quorum, res.Members)
	}
	for i, p := range res.Pred {
		if p != 1 {
			t.Fatalf("row %d: pred = %d, want 1", i, p)
		}
	}
	for _, rep := range res.Reports {
		if rep.Status != StatusOK {
			t.Fatalf("member %s: status %v, want ok", rep.Name, rep.Status)
		}
	}
	// Mean probs over all five members: class 1 = (4*0.5+0.25)/5 = 0.45.
	if got := res.Probs.At(0, 1); got != 0.45 {
		t.Fatalf("mean prob class 1 = %v, want 0.45", got)
	}

	// A k-row request votes each row bit-identically to k one-row
	// requests over real networks. The serve-bulk benchmark's offline
	// check relies on it: every row's answer must be independent of the
	// rows it arrived with.
	t.Run("rows match one-row requests bitwise", func(t *testing.T) {
		s, err := New(realMembers(t, "convnet", "mobilenet", "convnet"), 3, Options{Clock: chaos.NewFake()})
		if err != nil {
			t.Fatal(err)
		}
		const k = 5
		x := tensor.New(k, 1, 8, 8)
		for i := range x.Data() {
			x.Data()[i] = float64(i%11)/11 - 0.5
		}
		all, err := s.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			one, err := s.Predict(x.SliceRows(i, i+1))
			if err != nil {
				t.Fatal(err)
			}
			if one.Pred[0] != all.Pred[i] {
				t.Fatalf("row %d: pred %d alone, %d in a %d-row request", i, one.Pred[0], all.Pred[i], k)
			}
			for j, v := range one.Probs.Row(0) {
				if math.Float64bits(all.Probs.At(i, j)) != math.Float64bits(v) {
					t.Fatalf("row %d probs[%d]: %v in a %d-row request != %v alone", i, j, all.Probs.At(i, j), k, v)
				}
			}
		}
	})
}

func TestDefaultMinQuorumIsMajority(t *testing.T) {
	s, err := New(fiveMembers(), 3, Options{Clock: chaos.NewFake()})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Options().MinQuorum; got != 3 {
		t.Fatalf("default MinQuorum = %d, want 3", got)
	}
	if _, err := New(fiveMembers(), 3, Options{MinQuorum: 6}); err == nil {
		t.Fatal("MinQuorum above ensemble size accepted")
	}
	if _, err := New(nil, 3, Options{}); err == nil {
		t.Fatal("empty member list accepted")
	}
}

func TestLoadSheddingRejectsOverflowImmediately(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	clk := chaos.NewFake()
	s, err := New(fiveMembers(), 3, Options{
		Clock: clk, QueueCapacity: 1, MemberDeadline: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the only admission slot: every member of request 1 sleeps
	// 50ms of fake time, so the request stays in flight until we advance.
	chaos.Arm("serve/member", "", chaos.Action{Delay: 50 * time.Millisecond})
	type reply struct {
		res *Result
		err error
	}
	done := make(chan reply, 1)
	go func() {
		res, err := s.Predict(batch())
		done <- reply{res, err}
	}()
	// 5 member sleeps + 1 deadline timer all parked on the fake clock.
	clk.BlockUntil(6)

	if _, err := s.Predict(batch()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow request: err = %v, want ErrOverloaded", err)
	}

	clk.Advance(50 * time.Millisecond)
	r := <-done
	if r.err != nil {
		t.Fatalf("held request failed: %v", r.err)
	}
	if r.res.Quorum != 5 {
		t.Fatalf("held request quorum = %d, want 5", r.res.Quorum)
	}
	// Disarm the delay; the freed slot must admit a request again.
	chaos.Reset()
	if _, err := s.Predict(batch()); err != nil {
		t.Fatalf("post-drain request failed: %v", err)
	}
}

func TestDrainRefusesNewAndWaitsForInflight(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	clk := chaos.NewFake()
	s, err := New(fiveMembers(), 3, Options{Clock: clk, MemberDeadline: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	chaos.Arm("serve/member", "", chaos.Action{Delay: 50 * time.Millisecond})
	predDone := make(chan error, 1)
	go func() {
		_, err := s.Predict(batch())
		predDone <- err
	}()
	clk.BlockUntil(6)

	drainDone := make(chan struct{})
	go func() {
		s.Drain()
		close(drainDone)
	}()
	// Drain flips the flag before blocking on in-flight requests; wait
	// for the flip so the refusal below cannot race admission.
	for !s.Draining() {
		runtime.Gosched()
	}
	if _, err := s.Predict(batch()); !errors.Is(err, ErrDraining) {
		t.Fatalf("during drain: err = %v, want ErrDraining", err)
	}
	select {
	case <-drainDone:
		t.Fatal("Drain returned while a request was in flight")
	default:
	}
	clk.Advance(50 * time.Millisecond)
	if err := <-predDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	<-drainDone
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
}

func TestSplitVotingClassifier(t *testing.T) {
	v := &core.VotingClassifier{
		Members: []core.Classifier{stubClf{row: []float64{1, 0}}, stubClf{row: []float64{0, 1}}},
		Classes: 2,
	}
	members := Split(v, []string{"convnet"})
	if len(members) != 2 {
		t.Fatalf("split produced %d members, want 2", len(members))
	}
	if members[0].Name != "convnet" || members[1].Name != "member-1" {
		t.Fatalf("names = %q, %q", members[0].Name, members[1].Name)
	}
	single := Split(stubClf{row: []float64{1, 0}}, nil)
	if len(single) != 1 || single[0].Name != "member-0" {
		t.Fatalf("single split = %+v", single)
	}
}

func TestSingleMemberServer(t *testing.T) {
	s, err := New(Split(stubClf{row: []float64{0.25, 0.75}}, []string{"solo"}), 2,
		Options{Clock: chaos.NewFake(), MinQuorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Predict(batch())
	if err != nil {
		t.Fatal(err)
	}
	if res.Quorum != 1 || res.Pred[0] != 1 {
		t.Fatalf("quorum %d pred %v", res.Quorum, res.Pred)
	}
}
