package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// Buffer pooling (DESIGN.md §10, "Memory model").
//
// The hot paths — batched inference and the training loop — allocate the
// same handful of buffer sizes over and over (im2col scratch, matmul
// outputs, activations). This file provides two reuse layers on top of a
// size-bucketed global pool:
//
//   - GetBuf/PutBuf: a process-wide, size-bucketed sync.Pool. Buffers are
//     grouped by power-of-two capacity; GetBuf returns a zero-filled slice
//     (exactly like make), so pooled and unpooled runs are byte-identical.
//   - Arena: a per-network freelist for the training loop and inference
//     path. Arena allocations are recycled wholesale by Reset at safe
//     points (end of a training batch, end of an inference chunk) instead
//     of being returned individually.
//
// Pooling is on by default and can be disabled with TDFM_POOL=off (or via
// SetPooling in tests); with pooling off every allocation falls through to
// plain make, which is the reference behaviour the byte-identity property
// tests compare against.

// numBuckets bounds the pooled size classes: bucket b holds slices of
// capacity 1<<b elements, so the largest class is far beyond any
// allocatable tensor and GetBuf never needs an overflow path.
const numBuckets = 34

var (
	poolEnabled     atomic.Bool
	poisonWriteOnce atomic.Bool

	pools [numBuckets]sync.Pool

	// boxes caches the *[]float64 headers that carry slices through the
	// bucket pools: storing a slice in an interface heap-allocates its
	// header, storing a pointer does not, so recycling the header keeps the
	// steady-state PutBuf/GetBuf round trip allocation-free.
	boxes sync.Pool

	poolHits   atomic.Uint64
	poolMisses atomic.Uint64
	poolBytes  atomic.Uint64
)

func init() {
	poolEnabled.Store(!poolDisabledByEnv(os.Getenv("TDFM_POOL")))
}

// poolDisabledByEnv reports whether a TDFM_POOL value asks for pooling to
// be switched off ("off", "0", or "false", case-insensitively).
func poolDisabledByEnv(v string) bool {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "off", "0", "false":
		return true
	}
	return false
}

// SetPooling enables or disables buffer pooling at runtime, overriding the
// TDFM_POOL environment default. It exists so the byte-identity property
// tests can compare pooled and unpooled runs in one process. Toggle it
// only while no pooled buffers are outstanding: a buffer obtained with
// pooling off has no bucket capacity and must never reach PutBuf with
// pooling back on.
func SetPooling(on bool) { poolEnabled.Store(on) }

// SetPoisonWriteOnce makes every pooled Arena.WriteOnce and WriteOnceLike
// handout arrive filled with NaN instead of stale contents. It exists for
// tests only: a layer that reads an element of a write-once destination
// before writing it then turns its output NaN, which a comparison against
// an unpooled run (whose write-once handouts are New's zeros) catches.
// Like SetPooling, toggle it only while no arena is in use on another
// goroutine.
func SetPoisonWriteOnce(on bool) { poisonWriteOnce.Store(on) }

// PoolingEnabled reports whether buffer pooling is active.
func PoolingEnabled() bool { return poolEnabled.Load() }

// PoolStats is a snapshot of the pool's reuse counters. Hits and Misses
// count buffer requests served from a freelist versus fresh allocations;
// BytesReused is the total payload size of all hits.
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

// Stats returns a snapshot of the global pool counters. Arena freelist
// reuse counts as hits too, so the numbers reflect every avoided
// allocation, not just sync.Pool traffic.
func Stats() PoolStats {
	return PoolStats{
		Hits:        poolHits.Load(),
		Misses:      poolMisses.Load(),
		BytesReused: poolBytes.Load(),
	}
}

// ResetStats zeroes the pool counters (tests and benchmarks).
func ResetStats() {
	poolHits.Store(0)
	poolMisses.Store(0)
	poolBytes.Store(0)
}

// bucketIndex returns the pool bucket for a request of n elements: the
// smallest b with 1<<b >= n.
func bucketIndex(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// getPooled serves a slice of length n from the bucketed pool, falling
// back to make. A reused buffer is cleared when zero is set and keeps its
// stale contents otherwise; a fresh one is zero-filled either way.
func getPooled(n int, zero bool) []float64 {
	if n < 0 {
		panic(fmt.Sprintf("tensor: GetBuf of negative size %d", n))
	}
	b := bucketIndex(n)
	if b >= numBuckets {
		panic(fmt.Sprintf("tensor: GetBuf of %d elements exceeds the largest pool bucket", n))
	}
	if poolEnabled.Load() {
		if v := pools[b].Get(); v != nil {
			bp := v.(*[]float64)
			s := *bp
			*bp = nil
			boxes.Put(bp)
			buf := s[:n]
			if zero {
				clear(buf)
			}
			poolHits.Add(1)
			poolBytes.Add(uint64(n) * 8)
			return buf
		}
	}
	poolMisses.Add(1)
	if !poolEnabled.Load() {
		// Reference behaviour: a plain allocation with no bucket capacity.
		// Such a buffer is not returnable to the pool; PutBuf is a no-op
		// while pooling is off.
		return make([]float64, n)
	}
	return make([]float64, n, 1<<b)
}

// GetBuf returns a zero-filled []float64 of length n, reusing a pooled
// buffer when one is available. The result is semantically identical to
// make([]float64, n); reuse only changes where the memory comes from, so
// pooled and unpooled runs produce byte-identical numerics. Pass the
// buffer to PutBuf when its lifetime ends, or simply drop it (the GC
// reclaims unreturned buffers; the pool never leaks them into live data).
func GetBuf(n int) []float64 { return getPooled(n, true) }

// PutBuf returns a buffer obtained from GetBuf to the pool. It panics if
// buf did not come from GetBuf (detected by a capacity that is not a pool
// bucket size): returning foreign memory would hand aliased storage to a
// future GetBuf caller. The caller must not retain or read buf after the
// call. PutBuf is a no-op while pooling is disabled.
func PutBuf(buf []float64) {
	if !poolEnabled.Load() || cap(buf) == 0 {
		return
	}
	c := cap(buf)
	if c&(c-1) != 0 {
		panic(fmt.Sprintf("tensor: PutBuf of foreign buffer with capacity %d (not a pool bucket size; only buffers from GetBuf may be returned)", c))
	}
	b := bucketIndex(c)
	if b >= numBuckets {
		return
	}
	var bp *[]float64
	if v := boxes.Get(); v != nil {
		bp = v.(*[]float64)
	} else {
		bp = new([]float64)
	}
	*bp = buf[:c]
	pools[b].Put(bp)
}

// NewPooled returns a zero-filled tensor like New, but with pool-backed
// storage that Release returns for reuse. With pooling disabled it is
// exactly New.
func NewPooled(shape ...int) *Tensor {
	n := checkShape(shape)
	if !poolEnabled.Load() {
		return New(shape...)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: GetBuf(n), pooled: true}
}

// Release returns a NewPooled tensor's storage to the pool and detaches it
// from the tensor; any later access panics (nil backing slice), which
// turns use-after-release bugs into immediate failures. Release is a no-op
// on tensors that do not own pooled storage — including every tensor
// allocated from an Arena, whose storage is owned and recycled by the
// arena itself. The caller must ensure no views (SliceRows, Reshape) of
// the tensor are still live.
func (t *Tensor) Release() {
	if !t.pooled {
		return
	}
	t.pooled = false
	d := t.data
	t.data = nil
	PutBuf(d)
}

// Arena is a per-network allocation scope: tensors and buffers handed out
// by an arena stay live until Reset, which recycles them all onto the
// arena's freelists for the next round of identical allocations. The
// training loop resets its model's arena after every optimizer step; the
// inference path resets after every predicted chunk. Within an
// inference forward, Mark and RecycleSince return each layer's dead
// activations early, so the arena holds the pass's live set rather than
// the sum of its activations. Release returns all storage to the global
// pool when the arena's owner is done.
//
// Two kinds of handout share the freelists. Buf, Tensor and TensorLike
// are zero-filled like make, for destinations that accumulate (matrix
// products, column sums, scatters) or write only some elements.
// WriteOnce and WriteOnceLike skip the fill and return stale contents,
// for destinations whose every element the caller overwrites before
// reading any: a recycled buffer then costs no memory pass.
//
// An Arena is not safe for concurrent use — it serves a single network,
// and networks already require external serialization (see package nn).
// Arena-backed tensors must never be individually Released, and callers
// must not retain them across a Reset: the storage is handed out again.
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
}

// ArenaMark is a point in an arena's handout sequence (see Arena.Mark).
type ArenaMark struct{ bufs, tensors int }

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// get hands out a length-n slice from the arena freelist, falling back
// to the global pool; the buffer is tracked as live until it is recycled.
// It is zero-filled when zero is set and holds stale contents otherwise.
// With pooling disabled it degrades to plain make and tracks nothing,
// restoring the reference allocation behaviour.
func (a *Arena) get(n int, zero bool) []float64 {
	if !poolEnabled.Load() {
		poolMisses.Add(1)
		return make([]float64, n)
	}
	b := bucketIndex(n)
	if b >= numBuckets {
		panic(fmt.Sprintf("tensor: arena allocation of %d elements exceeds the largest pool bucket", n))
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
		buf = getPooled(n, zero)
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
// caller must overwrite every element before reading any. With pooling
// disabled it is exactly New. Same lifetime contract as Tensor.
func (a *Arena) WriteOnce(shape ...int) *Tensor { return a.tensor(shape, false) }

// WriteOnceLike is WriteOnce with x's shape, without the shape copy an
// x.Shape() spread would allocate.
func (a *Arena) WriteOnceLike(x *Tensor) *Tensor { return a.tensor(x.shape, false) }

// tensor hands out an arena tensor, zero-filled when zero is set. A
// write-once handout is filled with NaN instead while SetPoisonWriteOnce
// is on.
func (a *Arena) tensor(shape []int, zero bool) *Tensor {
	n := checkShape(shape)
	if !poolEnabled.Load() {
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
	if !zero && poisonWriteOnce.Load() {
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
func (a *Arena) Mark() ArenaMark { return ArenaMark{len(a.live), len(a.liveT)} }

// RecycleSince returns every buffer and tensor handed out since m to the
// freelists, except the storage backing keep (nil keeps nothing). Storage
// is matched by its backing array, so keep may be a handout itself or a
// view sharing a handout's storage to its end (a Reshape, not a SliceRows
// of leading rows); storage handed out before m — the caller's input,
// say — is never touched. Recycled tensors are detached from their
// storage as Reset detaches them. With pooling disabled nothing is
// tracked and it does nothing.
func (a *Arena) RecycleSince(m ArenaMark, keep *Tensor) {
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

// Release returns all arena storage — live and free — to the global pool
// and empties the arena. The arena remains usable afterwards; it simply
// starts cold. It keeps its bookkeeping, which holds no storage — the
// recycled tensor wrappers and the lists' capacity — so a network that
// runs again after a release does not rebuild it.
func (a *Arena) Release() {
	a.Reset()
	for b, bufs := range a.free {
		for _, buf := range bufs {
			PutBuf(buf)
		}
		clear(bufs)
		a.free[b] = bufs[:0]
	}
	clear(a.live[:cap(a.live)])
}
