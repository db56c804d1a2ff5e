package tensor

import (
	"math"
	"strings"
	"testing"
)

// withPooling runs fn with pooling forced to the given state, restoring
// the previous state afterwards.
func withPooling(t *testing.T, on bool, fn func()) {
	t.Helper()
	prev := PoolingEnabled()
	SetPooling(on)
	defer SetPooling(prev)
	fn()
}

func TestPoolOffFallsBackToMake(t *testing.T) {
	withPooling(t, false, func() {
		ResetStats()
		a := NewArena()
		buf := a.Buf(100)
		if len(buf) != 100 || cap(buf) != 100 {
			t.Fatalf("pool off: Buf(100) len/cap = %d/%d, want 100/100", len(buf), cap(buf))
		}
		x := a.Tensor(4, 5)
		if x.Size() != 20 {
			t.Fatalf("arena tensor size = %d", x.Size())
		}
		a.Reset()
		if x.Data() == nil {
			t.Fatal("Reset detached a tensor with pooling off")
		}
		a.Release()
		a.Buf(100)
		if s := Stats(); s.Hits != 0 {
			t.Fatalf("pool off: an arena reused storage: %+v", s)
		}
	})
}

func TestPoolStatsCounters(t *testing.T) {
	withPooling(t, true, func() {
		ResetStats()
		a := NewArena()
		a.Buf(1 << 10)
		a.Reset()
		a.Buf(1 << 10)
		want := PoolStats{Hits: 1, Misses: 1, BytesReused: 8 << 10}
		if s := Stats(); s != want {
			t.Fatalf("Stats() = %+v, want %+v", s, want)
		}
		str := want.String()
		for _, field := range []string{"pool-hit=1", "pool-miss=1", "pool-bytes=8192"} {
			if !strings.Contains(str, field) {
				t.Fatalf("Stats().String() = %q, missing %s", str, field)
			}
		}
	})
}

// TestArenaReleaseDropsStorage pins that a released arena keeps no
// storage: its next handouts, write-once ones included, are fresh
// zero-filled allocations counted as misses.
func TestArenaReleaseDropsStorage(t *testing.T) {
	withPooling(t, true, func() {
		a := NewArena()
		a.Tensor(8, 8).Fill(3.5)
		a.WriteOnce(8, 8).Fill(4.5)
		a.Reset()
		a.Buf(64)[0] = 5.5 // live at the release
		a.Release()
		ResetStats()
		for _, x := range []*Tensor{a.WriteOnce(8, 8), a.WriteOnce(8, 8), a.Tensor(8, 8)} {
			for i, v := range x.Data() {
				if v != 0 {
					t.Fatalf("handout after Release holds stale storage at %d: %v", i, v)
				}
			}
		}
		if s := Stats(); s.Hits != 0 || s.Misses != 3 {
			t.Fatalf("released arena reissued storage: %+v", s)
		}
	})
}

func TestArenaReuseAndZeroing(t *testing.T) {
	withPooling(t, true, func() {
		a := NewArena()
		x := a.Tensor(8, 8)
		x.Fill(3.5)

		a.Reset()
		ResetStats()
		y := a.Tensor(8, 8) // must come from the freelist, zeroed
		for i, v := range y.Data() {
			if v != 0 {
				t.Fatalf("arena handed out dirty storage at %d: %v", i, v)
			}
		}
		if s := Stats(); s.Hits != 1 || s.Misses != 0 {
			t.Fatalf("arena reuse not counted as a hit: %+v", s)
		}
		a.Release()
	})
}

// TestArenaWriteOnce pins the write-once handout: a recycled buffer
// keeps its stale contents (no zero fill) and counts as a hit, the
// poison hook fills it with NaN instead, a later zero-filled handout of
// the same storage is clean again, and with pooling off it is New.
func TestArenaWriteOnce(t *testing.T) {
	withPooling(t, true, func() {
		a := NewArena()
		x := a.WriteOnce(4, 4)
		x.Fill(2.5)
		a.Reset()
		ResetStats()
		y := a.WriteOnceLike(x)
		if y.Dims() != 2 || y.Dim(0) != 4 || y.Dim(1) != 4 {
			t.Fatalf("WriteOnceLike shape %v, want [4 4]", y.Shape())
		}
		if y.Data()[5] != 2.5 {
			t.Fatalf("write-once handout was cleared: %v", y.Data()[5])
		}
		if s := Stats(); s.Hits != 1 || s.Misses != 0 {
			t.Fatalf("write-once reuse not counted as a hit: %+v", s)
		}

		a.Reset()
		SetPoisonWriteOnce(true)
		p := a.WriteOnce(16)
		SetPoisonWriteOnce(false)
		for i, v := range p.Data() {
			if !math.IsNaN(v) {
				t.Fatalf("poisoned handout element %d = %v, want NaN", i, v)
			}
		}

		a.Reset()
		for i, v := range a.Tensor(4, 4).Data() {
			if v != 0 {
				t.Fatalf("zero-filled handout after a write-once one is dirty at %d: %v", i, v)
			}
		}
		a.Release()
	})
	withPooling(t, false, func() {
		SetPoisonWriteOnce(true)
		defer SetPoisonWriteOnce(false)
		for i, v := range NewArena().WriteOnce(3, 3).Data() {
			if v != 0 {
				t.Fatalf("unpooled write-once handout element %d = %v, want New's zero", i, v)
			}
		}
	})
}

// TestArenaRecycleSince pins early recycling: handouts after a mark
// return to the freelists except the storage backing keep, whether keep
// is a handout, a Reshape view of one, or a pass-through input from
// before the mark; an inner mark recycles only its own span; with
// pooling off nothing is tracked; and a steady-state round allocates
// nothing.
func TestArenaRecycleSince(t *testing.T) {
	withPooling(t, true, func() {
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
		ResetStats()
		r1, r2 := a.WriteOnce(4, 4), a.WriteOnce(4, 4)
		if s := Stats(); s.Hits != 2 || s.Misses != 0 {
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
		ResetStats()
		a.Buf(64)
		if s := Stats(); s.Hits != 0 || s.Misses != 1 {
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
	})
	withPooling(t, false, func() {
		a := NewArena()
		m := a.Mark()
		x := a.Tensor(2, 2)
		a.RecycleSince(m, nil)
		if x.Data() == nil {
			t.Fatal("RecycleSince detached a tensor with pooling off")
		}
	})
}
