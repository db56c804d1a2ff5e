package tensor

import (
	"math"
	"strings"
	"sync"
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

func TestGetBufZeroedAndBucketed(t *testing.T) {
	withPooling(t, true, func() {
		for _, n := range []int{1, 2, 3, 7, 8, 100, 1 << 12, (1 << 12) + 1} {
			buf := GetBuf(n)
			if len(buf) != n {
				t.Fatalf("GetBuf(%d) len = %d", n, len(buf))
			}
			if c := cap(buf); c&(c-1) != 0 {
				t.Fatalf("GetBuf(%d) cap %d is not a power of two", n, c)
			}
			for i := range buf {
				buf[i] = float64(i + 1) // dirty before returning
			}
			PutBuf(buf)
		}
		// A recycled buffer must come back zero-filled.
		buf := GetBuf(100)
		for i, v := range buf {
			if v != 0 {
				t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
			}
		}
		PutBuf(buf)
	})
}

func TestPutBufForeignPanics(t *testing.T) {
	withPooling(t, true, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("PutBuf of a foreign buffer did not panic")
			}
			if !strings.Contains(r.(string), "foreign buffer") {
				t.Fatalf("unexpected panic message: %v", r)
			}
		}()
		PutBuf(make([]float64, 100)) // cap 100: not a bucket size
	})
}

func TestPoolOffFallsBackToMake(t *testing.T) {
	withPooling(t, false, func() {
		buf := GetBuf(100)
		if len(buf) != 100 || cap(buf) != 100 {
			t.Fatalf("pool off: GetBuf(100) len/cap = %d/%d, want 100/100", len(buf), cap(buf))
		}
		PutBuf(buf) // must be a no-op, not a foreign-buffer panic

		a := NewArena()
		x := a.Tensor(4, 5)
		if x.Size() != 20 {
			t.Fatalf("arena tensor size = %d", x.Size())
		}
		a.Reset()
		a.Release()

		p := NewPooled(3, 3)
		p.Release() // no-op: plain storage when pooling is off
		if p.Size() != 9 {
			t.Fatal("Release with pooling off must not detach storage")
		}
	})
}

func TestPoolStatsCounters(t *testing.T) {
	withPooling(t, true, func() {
		// sync.Pool retention is GC-dependent, so only the total request
		// count is asserted here; exact hit/byte accounting is pinned by
		// TestArenaReuseAndZeroing on the deterministic arena freelist.
		ResetStats()
		buf := GetBuf(1 << 10)
		PutBuf(buf)
		buf = GetBuf(1 << 10)
		PutBuf(buf)
		s := Stats()
		if s.Hits+s.Misses != 2 {
			t.Fatalf("expected 2 pool requests accounted, got %+v", s)
		}
		str := s.String()
		for _, field := range []string{"pool-hit=", "pool-miss=", "pool-bytes="} {
			if !strings.Contains(str, field) {
				t.Fatalf("Stats().String() = %q, missing %s", str, field)
			}
		}
	})
}

func TestTensorReleaseDetaches(t *testing.T) {
	withPooling(t, true, func() {
		p := NewPooled(4, 4)
		p.Data()[3] = 42
		p.Release()
		defer func() {
			if recover() == nil {
				t.Fatal("access after Release did not panic")
			}
		}()
		_ = p.Data()[0]
	})
}

func TestArenaReuseAndZeroing(t *testing.T) {
	withPooling(t, true, func() {
		a := NewArena()
		x := a.Tensor(8, 8)
		x.Fill(3.5)
		buf32 := a.Buf32(16)
		buf32[0] = 1

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
		f := a.F32(4, 4)
		if s := Stats(); s.Hits != 2 {
			t.Fatalf("f32 arena reuse not counted: %+v", s)
		}
		for i, v := range f.Data() {
			if v != 0 {
				t.Fatalf("arena handed out dirty f32 storage at %d: %v", i, v)
			}
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

// TestPoolStressConcurrent hammers Get/Put from many goroutines, each
// verifying that its buffers are never aliased with another goroutine's
// live buffer. Run under -race by make test-race and make serve-chaos's
// CI sibling.
func TestPoolStressConcurrent(t *testing.T) {
	withPooling(t, true, func() {
		const (
			workers = 8
			rounds  = 200
		)
		sizes := []int{17, 64, 129, 1000, 4096}
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					n := sizes[(id+r)%len(sizes)]
					buf := GetBuf(n)
					buf32 := GetBuf32(n)
					stamp := float64(id*1_000_000 + r)
					for i := range buf {
						buf[i] = stamp
						buf32[i] = float32(id + 1)
					}
					for i := range buf {
						if buf[i] != stamp || buf32[i] != float32(id+1) {
							select {
							case errs <- "buffer aliased across goroutines":
							default:
							}
							return
						}
					}
					PutBuf(buf)
					PutBuf32(buf32)
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		if msg, ok := <-errs; ok {
			t.Fatal(msg)
		}
	})
}
