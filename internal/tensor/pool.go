package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Arena reuse (DESIGN.md §10, "Memory model").
//
// The hot paths — batched inference and the training loop — allocate the
// same handful of buffer sizes over and over (im2col scratch, matmul
// outputs, activations). Each network owns an Arena: a size-bucketed
// freelist whose handouts are recycled wholesale by Reset at safe points
// (end of a training batch, end of an inference chunk) instead of being
// returned individually. Storage an arena releases goes to the garbage
// collector; there is no process-wide pool.
//
// Reuse is a property of the arena, chosen when it is made: the nil
// *Arena allocates per call (the reference the byte-identity property
// tests compare against), NewArena reuses, and NewPoisonArena reuses and
// NaN-fills its write-once handouts. There is no process-wide switch.

// numBuckets bounds the arena size classes: bucket b holds slices of
// capacity 1<<b elements, so the largest class is far beyond any
// allocatable tensor.
const numBuckets = 34

var (
	poolHits   atomic.Uint64
	poolMisses atomic.Uint64
	poolBytes  atomic.Uint64
)

// PoolStats is a snapshot of the arenas' reuse counters. Hits and Misses
// count buffer requests served from an arena freelist versus fresh
// allocations; BytesReused is the total payload size of all hits.
type PoolStats struct {
	Hits        uint64
	Misses      uint64
	BytesReused uint64
}

// String renders the counters in the observability wire format,
// "pool-hit=… pool-miss=… pool-bytes=…".
func (s PoolStats) String() string {
	return fmt.Sprintf("pool-hit=%d pool-miss=%d pool-bytes=%d", s.Hits, s.Misses, s.BytesReused)
}

// Stats returns a snapshot of the process-wide reuse counters, summed
// over every arena.
func Stats() PoolStats {
	return PoolStats{
		Hits:        poolHits.Load(),
		Misses:      poolMisses.Load(),
		BytesReused: poolBytes.Load(),
	}
}

// bucketIndex returns the size class for a request of n elements: the
// smallest b with 1<<b >= n.
func bucketIndex(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Arena is a per-network allocation scope: tensors and buffers handed out
// by an arena stay live until Reset, which recycles them all onto the
// arena's freelists for the next round of identical allocations. The
// training loop resets its model's arena after every optimizer step; the
// inference path resets after every predicted chunk. Within an
// inference forward, Mark and RecycleSince return each layer's dead
// activations early, so the arena holds the pass's live set rather than
// the sum of its activations. Release drops all storage, for the garbage
// collector to reclaim, when the arena's owner is done.
//
// Two kinds of handout share the freelists. Buf, Tensor and TensorLike
// are zero-filled like make, for destinations that accumulate (matrix
// products, column sums, scatters) or write only some elements.
// WriteOnce and WriteOnceLike skip the fill and return stale contents,
// for destinations whose every element the caller overwrites before
// reading any: a recycled buffer then costs no memory pass.
//
// A nil *Arena is valid and reuses nothing: every handout is a fresh
// allocation counted as a miss (write-once ones hold New's zeros), Mark
// returns the zero mark, and RecycleSince, Reset and Release do nothing.
// It is the allocate-per-call reference, and the mode of a network with
// no arena installed.
//
// An Arena is not safe for concurrent use — it serves a single network,
// and networks already require external serialization (see package nn).
// Callers must not retain arena-backed tensors across a Reset: the
// storage is handed out again.
type Arena struct {
	free [numBuckets][][]float64
	// live lists every buffer handed out since the last Reset, in handout
	// order, each at its full bucket capacity; an ArenaMark is a position
	// in it.
	live [][]float64

	// Tensor wrapper structs are recycled alongside their storage, so a
	// steady-state arena allocation performs no heap allocation at all
	// (the shape slice is reused in place when capacity allows).
	freeT []*Tensor
	liveT []*Tensor

	// poison fills every write-once handout with NaN (NewPoisonArena).
	poison bool
}

// ArenaMark is a point in an arena's handout sequence (see Arena.Mark).
type ArenaMark struct{ bufs, tensors int }

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// NewPoisonArena returns an empty arena whose WriteOnce and WriteOnceLike
// handouts arrive filled with NaN instead of stale contents. It exists
// for tests: a layer that reads an element of a write-once destination
// before writing it then turns its output NaN, which a comparison
// against a nil arena (whose write-once handouts are New's zeros)
// catches.
func NewPoisonArena() *Arena { return &Arena{poison: true} }

// get hands out a length-n slice from the arena freelist, falling back
// to make at the bucket's capacity; the buffer is tracked as live until
// it is recycled. It is zero-filled when zero is set and holds stale
// contents otherwise. A nil arena returns plain make and tracks nothing.
func (a *Arena) get(n int, zero bool) []float64 {
	if a == nil {
		poolMisses.Add(1)
		return make([]float64, n)
	}
	b := bucketIndex(n)
	if b >= numBuckets {
		panic(fmt.Sprintf("tensor: arena allocation of %d elements exceeds the largest bucket", n))
	}
	var buf []float64
	if l := len(a.free[b]); l > 0 {
		buf = a.free[b][l-1][:n]
		a.free[b] = a.free[b][:l-1]
		if zero {
			clear(buf)
		}
		poolHits.Add(1)
		poolBytes.Add(uint64(n) * 8)
	} else {
		buf = make([]float64, n, 1<<b)
		poolMisses.Add(1)
	}
	a.live = append(a.live, buf[:cap(buf)])
	return buf
}

// Buf returns a zero-filled []float64 of length n owned by the arena
// (reclaimed at the next Reset, like Tensor).
func (a *Arena) Buf(n int) []float64 { return a.get(n, true) }

// Tensor returns a zero-filled tensor of the given shape backed by arena
// storage. It is semantically identical to New; the storage is reclaimed
// at the next Reset, so the result must not outlive it (copy anything that
// escapes, e.g. with Clone).
func (a *Arena) Tensor(shape ...int) *Tensor { return a.tensor(shape, true) }

// TensorLike returns a zero-filled arena tensor with x's shape, without
// the intermediate shape copy an x.Shape() spread would allocate. Same
// lifetime contract as Tensor.
func (a *Arena) TensorLike(x *Tensor) *Tensor { return a.tensor(x.shape, true) }

// WriteOnce returns an arena tensor of the given shape whose contents are
// unspecified: a recycled buffer keeps whatever its last user wrote. The
// caller must overwrite every element before reading any. On a nil arena
// it is exactly New. Same lifetime contract as Tensor.
func (a *Arena) WriteOnce(shape ...int) *Tensor { return a.tensor(shape, false) }

// WriteOnceLike is WriteOnce with x's shape, without the shape copy an
// x.Shape() spread would allocate.
func (a *Arena) WriteOnceLike(x *Tensor) *Tensor { return a.tensor(x.shape, false) }

// tensor hands out an arena tensor, zero-filled when zero is set. A
// poisoned arena fills a write-once handout with NaN instead.
func (a *Arena) tensor(shape []int, zero bool) *Tensor {
	n := checkShape(shape)
	if a == nil {
		poolMisses.Add(1)
		return New(shape...)
	}
	var t *Tensor
	if l := len(a.freeT); l > 0 {
		t = a.freeT[l-1]
		a.freeT = a.freeT[:l-1]
		t.shape = append(t.shape[:0], shape...)
	} else {
		t = &Tensor{shape: append([]int(nil), shape...)}
	}
	t.data = a.get(n, zero)
	if !zero && a.poison {
		nan := math.NaN()
		for i := range t.data {
			t.data[i] = nan
		}
	}
	a.liveT = append(a.liveT, t)
	return t
}

// Mark records the arena's current point in its handout sequence for a
// later RecycleSince. A mark is valid until the next Reset.
func (a *Arena) Mark() ArenaMark {
	if a == nil {
		return ArenaMark{}
	}
	return ArenaMark{len(a.live), len(a.liveT)}
}

// RecycleSince returns every buffer and tensor handed out since m to the
// freelists, except the storage backing keep (nil keeps nothing). Storage
// is matched by its backing array, so keep may be a handout itself or a
// view sharing a handout's storage to its end (a Reshape, not a SliceRows
// of leading rows); storage handed out before m — the caller's input,
// say — is never touched. Recycled tensors are detached from their
// storage as Reset detaches them. On a nil arena it does nothing.
func (a *Arena) RecycleSince(m ArenaMark, keep *Tensor) {
	if a == nil {
		return
	}
	var end *float64
	if keep != nil {
		end = storageEnd(keep.data)
	}
	kept := m.bufs
	for _, buf := range a.live[m.bufs:] {
		if end != nil && storageEnd(buf) == end {
			a.live[kept] = buf
			kept++
			continue
		}
		b := bucketIndex(cap(buf))
		a.free[b] = append(a.free[b], buf)
	}
	a.live = a.live[:kept]
	kept = m.tensors
	for _, t := range a.liveT[m.tensors:] {
		if end != nil && storageEnd(t.data) == end {
			a.liveT[kept] = t
			kept++
			continue
		}
		// Detach the recycled wrapper so a retained reference fails fast
		// (nil data) instead of silently reading reissued memory.
		t.data = nil
		a.freeT = append(a.freeT, t)
	}
	a.liveT = a.liveT[:kept]
}

// storageEnd identifies s's backing array by the address of its last
// element within capacity, which every reslice that keeps the capacity
// shares; it is nil for a slice with no capacity.
func storageEnd(s []float64) *float64 {
	if cap(s) == 0 {
		return nil
	}
	return &s[:cap(s)][cap(s)-1]
}

// Reset recycles every live arena allocation onto the freelists. All
// tensors and buffers previously handed out become invalid: their storage
// will be reissued by subsequent allocations. Callers invoke
// it at points where nothing from the previous round is referenced (after
// an optimizer step, after an inference chunk's result has been copied
// out).
func (a *Arena) Reset() { a.RecycleSince(ArenaMark{}, nil) }

// Release drops all arena storage — live and free — for the garbage
// collector to reclaim. The arena remains usable afterwards; it simply
// starts cold. It keeps its bookkeeping, which holds no storage — the
// recycled tensor wrappers and the lists' capacity — so a network that
// runs again after a release does not rebuild it.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.Reset()
	for b, bufs := range a.free {
		clear(bufs)
		a.free[b] = bufs[:0]
	}
	clear(a.live[:cap(a.live)])
}
