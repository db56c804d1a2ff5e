package tensor

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// statsSince returns the reuse counters accumulated since before, a
// Stats snapshot.
func statsSince(before PoolStats) PoolStats {
	s := Stats()
	return PoolStats{
		Hits:        s.Hits - before.Hits,
		Misses:      s.Misses - before.Misses,
		BytesReused: s.BytesReused - before.BytesReused,
	}
}

// TestPoolOffFallsBackToMake pins the reference arena, reuse off: a nil
// *Arena hands out plain allocations, tracks nothing, and never reuses.
func TestPoolOffFallsBackToMake(t *testing.T) {
	before := Stats()
	var a *Arena
	buf := a.Buf(100)
	if len(buf) != 100 || cap(buf) != 100 {
		t.Fatalf("nil arena: Buf(100) len/cap = %d/%d, want 100/100", len(buf), cap(buf))
	}
	x := a.Tensor(4, 5)
	if x.Size() != 20 {
		t.Fatalf("arena tensor size = %d", x.Size())
	}
	if m := a.Mark(); m != (ArenaMark{}) {
		t.Fatalf("nil arena Mark = %+v, want the zero mark", m)
	}
	a.Reset()
	if x.Data() == nil {
		t.Fatal("Reset detached a tensor of the nil arena")
	}
	a.Release()
	a.Buf(100)
	if s := statsSince(before); s.Hits != 0 {
		t.Fatalf("nil arena reused storage: %+v", s)
	}
}

func TestPoolStatsCounters(t *testing.T) {
	before := Stats()
	a := NewArena()
	a.Buf(1 << 10)
	a.Reset()
	a.Buf(1 << 10)
	want := PoolStats{Hits: 1, Misses: 1, BytesReused: 8 << 10}
	if s := statsSince(before); s != want {
		t.Fatalf("Stats() delta = %+v, want %+v", s, want)
	}
	str := want.String()
	for _, field := range []string{"pool-hit=1", "pool-miss=1", "pool-bytes=8192"} {
		if !strings.Contains(str, field) {
			t.Fatalf("Stats().String() = %q, missing %s", str, field)
		}
	}
	// On the nil arena every handout is a fresh allocation, counted as a
	// miss whether it is a buffer or a tensor.
	before = Stats()
	var none *Arena
	none.Buf(1 << 10)
	none.Tensor(4, 5)
	if s, want := statsSince(before), (PoolStats{Misses: 2}); s != want {
		t.Fatalf("nil arena: Stats() delta = %+v, want %+v", s, want)
	}
}

// TestArenaReleaseDropsStorage pins that a released arena keeps no
// storage: its next handouts, write-once ones included, are fresh
// zero-filled allocations counted as misses.
func TestArenaReleaseDropsStorage(t *testing.T) {
	a := NewArena()
	a.Tensor(8, 8).Fill(3.5)
	a.WriteOnce(8, 8).Fill(4.5)
	a.Reset()
	a.Buf(64)[0] = 5.5 // live at the release
	a.Release()
	before := Stats()
	for _, x := range []*Tensor{a.WriteOnce(8, 8), a.WriteOnce(8, 8), a.Tensor(8, 8)} {
		for i, v := range x.Data() {
			if v != 0 {
				t.Fatalf("handout after Release holds stale storage at %d: %v", i, v)
			}
		}
	}
	if s := statsSince(before); s.Hits != 0 || s.Misses != 3 {
		t.Fatalf("released arena reissued storage: %+v", s)
	}
}

func TestArenaReuseAndZeroing(t *testing.T) {
	a := NewArena()
	x := a.Tensor(8, 8)
	x.Fill(3.5)

	a.Reset()
	before := Stats()
	y := a.Tensor(8, 8) // must come from the freelist, zeroed
	for i, v := range y.Data() {
		if v != 0 {
			t.Fatalf("arena handed out dirty storage at %d: %v", i, v)
		}
	}
	if s := statsSince(before); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("arena reuse not counted as a hit: %+v", s)
	}
	a.Release()
}

// TestArenaWriteOnce pins the write-once handout: a recycled buffer
// keeps its stale contents (no zero fill) and counts as a hit, a
// poisoned arena fills it with NaN instead, a later zero-filled handout
// of the same storage is clean again, and on the nil arena it is New.
func TestArenaWriteOnce(t *testing.T) {
	a := NewArena()
	x := a.WriteOnce(4, 4)
	x.Fill(2.5)
	a.Reset()
	before := Stats()
	y := a.WriteOnceLike(x)
	if y.Dims() != 2 || y.Dim(0) != 4 || y.Dim(1) != 4 {
		t.Fatalf("WriteOnceLike shape %v, want [4 4]", y.Shape())
	}
	if y.Data()[5] != 2.5 {
		t.Fatalf("write-once handout was cleared: %v", y.Data()[5])
	}
	if s := statsSince(before); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("write-once reuse not counted as a hit: %+v", s)
	}
	a.Release()

	p := NewPoisonArena()
	p.WriteOnce(16).Fill(2.5)
	p.Reset()
	for i, v := range p.WriteOnce(16).Data() {
		if !math.IsNaN(v) {
			t.Fatalf("poisoned handout element %d = %v, want NaN", i, v)
		}
	}
	p.Reset()
	for i, v := range p.Tensor(4, 4).Data() {
		if v != 0 {
			t.Fatalf("zero-filled handout after a write-once one is dirty at %d: %v", i, v)
		}
	}

	var none *Arena
	for i, v := range none.WriteOnce(3, 3).Data() {
		if v != 0 {
			t.Fatalf("nil-arena write-once handout element %d = %v, want New's zero", i, v)
		}
	}
}

// TestArenaModesAreIndependent drives a reusing, a poisoned and a nil
// arena on three goroutines at once: each arena's mode is its own, so
// none leaks into another. A recycled write-once handout keeps stale
// contents on the reusing arena, is NaN on the poisoned one and New's
// zeros on the nil one; Buf and Tensor handouts are zero on all three.
func TestArenaModesAreIndependent(t *testing.T) {
	const rounds = 200
	modes := []struct {
		name      string
		arena     *Arena
		writeOnce func(v float64) bool // checks a recycled write-once element
	}{
		{"reusing", NewArena(), func(v float64) bool { return v == 7 }},
		{"poisoned", NewPoisonArena(), math.IsNaN},
		{"nil", nil, func(v float64) bool { return v == 0 }},
	}
	var wg sync.WaitGroup
	errs := make([]string, len(modes))
	for i, m := range modes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := m.arena
			for r := 0; r < rounds; r++ {
				a.WriteOnce(8, 8).Fill(7)
				a.Tensor(8, 8).Fill(7)
				buf := a.Buf(64)
				for j := range buf {
					buf[j] = 7
				}
				a.Reset()
				for j, v := range a.WriteOnce(8, 8).Data() {
					if !m.writeOnce(v) {
						errs[i] = fmt.Sprintf("round %d: recycled write-once element %d = %v", r, j, v)
						return
					}
				}
				for j, v := range a.Tensor(8, 8).Data() {
					if v != 0 {
						errs[i] = fmt.Sprintf("round %d: Tensor element %d = %v, want 0", r, j, v)
						return
					}
				}
				for j, v := range a.Buf(64) {
					if v != 0 {
						errs[i] = fmt.Sprintf("round %d: Buf element %d = %v, want 0", r, j, v)
						return
					}
				}
				a.Reset()
			}
		}()
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Errorf("%s arena: %s", modes[i].name, e)
		}
	}
}

// TestArenaRecycleSince pins early recycling: handouts after a mark
// return to the freelists except the storage backing keep, whether keep
// is a handout, a Reshape view of one, or a pass-through input from
// before the mark; an inner mark recycles only its own span; on the nil
// arena nothing is tracked; and a steady-state round allocates nothing.
func TestArenaRecycleSince(t *testing.T) {
	a := NewArena()
	in := a.Tensor(4, 4)
	in.Fill(1)

	m := a.Mark()
	dead, scratch := a.Tensor(4, 4), a.Buf(16)
	scratch[0] = 5
	out := a.WriteOnce(4, 4)
	out.Fill(2)
	a.RecycleSince(m, out)
	if dead.Data() != nil {
		t.Fatal("recycled tensor still attached to its storage")
	}
	if out.Data()[15] != 2 || in.Data()[15] != 1 {
		t.Fatalf("kept storage changed: out %v, in %v", out.Data()[15], in.Data()[15])
	}
	before := Stats()
	r1, r2 := a.WriteOnce(4, 4), a.WriteOnce(4, 4)
	if s := statsSince(before); s.Hits != 2 || s.Misses != 0 {
		t.Fatalf("recycled storage not reissued: %+v", s)
	}
	for _, r := range []*Tensor{r1, r2} {
		if end := storageEnd(r.Data()); end == storageEnd(out.Data()) || end == storageEnd(in.Data()) {
			t.Fatal("kept storage reissued")
		}
	}

	// A Reshape view keeps its base's storage.
	m = a.Mark()
	base := a.WriteOnce(2, 32)
	base.Fill(3)
	view := base.Reshape(64)
	a.RecycleSince(m, view)
	if base.Data() == nil || view.Data()[63] != 3 {
		t.Fatal("storage behind a kept Reshape view was recycled")
	}
	before = Stats()
	a.Buf(64)
	if s := statsSince(before); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("storage behind a kept view reissued: %+v", s)
	}

	// A pass-through input from before the mark is kept; everything
	// after the mark goes.
	m = a.Mark()
	tmp := a.Tensor(8, 8)
	a.RecycleSince(m, in)
	if tmp.Data() != nil || in.Data()[0] != 1 {
		t.Fatal("pass-through input not kept or handout after the mark not recycled")
	}

	// Nested marks: the inner span recycles first, the outer one later.
	outer := a.Mark()
	o1 := a.Tensor(3, 3)
	inner := a.Mark()
	i1, i2 := a.Tensor(3, 3), a.Tensor(3, 3)
	a.RecycleSince(inner, i2)
	if i1.Data() != nil || o1.Data() == nil || i2.Data() == nil {
		t.Fatal("inner RecycleSince reached outside its span or missed a handout")
	}
	a.RecycleSince(outer, i2)
	if o1.Data() != nil || i2.Data() == nil {
		t.Fatal("outer RecycleSince did not recycle its span around the kept tensor")
	}

	a.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		m := a.Mark()
		x := a.WriteOnce(4, 4)
		y := a.Tensor(4, 4)
		a.RecycleSince(m, x)
		_ = y
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("steady-state mark/recycle round allocates %v times", allocs)
	}
	a.Release()

	var none *Arena
	m = none.Mark()
	x := none.Tensor(2, 2)
	none.RecycleSince(m, nil)
	if x.Data() == nil {
		t.Fatal("RecycleSince detached a tensor of the nil arena")
	}
}
