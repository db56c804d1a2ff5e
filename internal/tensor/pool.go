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

	pool64 [numBuckets]sync.Pool
	pool32 [numBuckets]sync.Pool

	// boxes64/boxes32 cache the *[]E headers that carry slices through the
	// bucket pools: storing a slice in an interface heap-allocates its
	// header, storing a pointer does not, so recycling the header keeps the
	// steady-state PutBuf/GetBuf round trip allocation-free.
	boxes64 sync.Pool
	boxes32 sync.Pool

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
// stale contents otherwise; a fresh one is zero-filled either way. Generic
// over the two storage element types so the float64 and float32 pools
// share one implementation.
func getPooled[E element](pools *[numBuckets]sync.Pool, boxes *sync.Pool, n int, zero bool) []E {
	if n < 0 {
		panic(fmt.Sprintf("tensor: GetBuf of negative size %d", n))
	}
	b := bucketIndex(n)
	if b >= numBuckets {
		panic(fmt.Sprintf("tensor: GetBuf of %d elements exceeds the largest pool bucket", n))
	}
	var elem E
	if poolEnabled.Load() {
		if v := pools[b].Get(); v != nil {
			bp := v.(*[]E)
			s := *bp
			*bp = nil
			boxes.Put(bp)
			buf := s[:n]
			if zero {
				clear(buf)
			}
			poolHits.Add(1)
			poolBytes.Add(uint64(n) * uint64(elemBytes(elem)))
			return buf
		}
	}
	poolMisses.Add(1)
	if !poolEnabled.Load() {
		// Reference behaviour: a plain allocation with no bucket capacity.
		// Such a buffer is not returnable to the pool; PutBuf is a no-op
		// while pooling is off.
		return make([]E, n)
	}
	return make([]E, n, 1<<b)
}

// elemBytes reports the byte size of a pool element without importing
// unsafe: the pool stores only float32 and float64.
func elemBytes[E element](e E) int {
	if _, ok := any(e).(float32); ok {
		return 4
	}
	return 8
}

// putPooled returns a buffer obtained from getPooled to its bucket. See
// PutBuf for the foreign-buffer panic contract.
func putPooled[E element](pools *[numBuckets]sync.Pool, boxes *sync.Pool, buf []E) {
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
	var bp *[]E
	if v := boxes.Get(); v != nil {
		bp = v.(*[]E)
	} else {
		bp = new([]E)
	}
	*bp = buf[:c]
	pools[b].Put(bp)
}

// GetBuf returns a zero-filled []float64 of length n, reusing a pooled
// buffer when one is available. The result is semantically identical to
// make([]float64, n); reuse only changes where the memory comes from, so
// pooled and unpooled runs produce byte-identical numerics. Pass the
// buffer to PutBuf when its lifetime ends, or simply drop it (the GC
// reclaims unreturned buffers; the pool never leaks them into live data).
func GetBuf(n int) []float64 { return getPooled[float64](&pool64, &boxes64, n, true) }

// PutBuf returns a buffer obtained from GetBuf to the pool. It panics if
// buf did not come from GetBuf (detected by a capacity that is not a pool
// bucket size): returning foreign memory would hand aliased storage to a
// future GetBuf caller. The caller must not retain or read buf after the
// call. PutBuf is a no-op while pooling is disabled.
func PutBuf(buf []float64) { putPooled(&pool64, &boxes64, buf) }

// GetBuf32 is GetBuf for float32 storage (the inference precision mode).
func GetBuf32(n int) []float32 { return getPooled[float32](&pool32, &boxes32, n, true) }

// PutBuf32 is PutBuf for float32 buffers, with the same foreign-buffer
// panic contract.
func PutBuf32(buf []float32) { putPooled(&pool32, &boxes32, buf) }

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
// inference path resets after every predicted chunk. Release returns all
// storage to the global pool when the arena's owner is done.
//
// Two kinds of handout share the freelists. Buf, Buf32, Tensor,
// TensorLike and F32 are zero-filled like make, for destinations that
// accumulate (matrix products, column sums, scatters) or write only some
// elements. WriteOnce and WriteOnceLike skip the fill and return stale
// contents, for destinations whose every element the caller overwrites
// before reading any: a recycled buffer then costs no memory pass.
//
// An Arena is not safe for concurrent use — it serves a single network,
// and networks already require external serialization (see package nn).
// Arena-backed tensors must never be individually Released, and callers
// must not retain them across a Reset: the storage is handed out again.
type Arena struct {
	free64 [numBuckets][][]float64
	live64 [numBuckets][][]float64
	free32 [numBuckets][][]float32
	live32 [numBuckets][][]float32

	// Tensor and F32 wrapper structs are recycled alongside their storage,
	// so a steady-state arena allocation performs no heap allocation at
	// all (the shape slice is reused in place when capacity allows).
	freeT []*Tensor
	liveT []*Tensor
	freeF []*F32
	liveF []*F32
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// arenaGet hands out a length-n slice from the arena freelist, falling
// back to the global pool; the buffer is tracked as live until the next
// Reset. It is zero-filled when zero is set and holds stale contents
// otherwise. With pooling disabled it degrades to plain make and tracks
// nothing, restoring the reference allocation behaviour.
func arenaGet[E element](free, live *[numBuckets][][]E, pools *[numBuckets]sync.Pool, boxes *sync.Pool, n int, zero bool) []E {
	if !poolEnabled.Load() {
		poolMisses.Add(1)
		return make([]E, n)
	}
	b := bucketIndex(n)
	if b >= numBuckets {
		panic(fmt.Sprintf("tensor: arena allocation of %d elements exceeds the largest pool bucket", n))
	}
	if l := len(free[b]); l > 0 {
		buf := free[b][l-1]
		free[b] = free[b][:l-1]
		buf = buf[:n]
		if zero {
			clear(buf)
		}
		var elem E
		poolHits.Add(1)
		poolBytes.Add(uint64(n) * uint64(elemBytes(elem)))
		live[b] = append(live[b], buf[:cap(buf)])
		return buf
	}
	buf := getPooled[E](pools, boxes, n, zero)
	live[b] = append(live[b], buf[:cap(buf)])
	return buf
}

// Buf returns a zero-filled []float64 of length n owned by the arena
// (reclaimed at the next Reset, like Tensor).
func (a *Arena) Buf(n int) []float64 {
	return arenaGet(&a.free64, &a.live64, &pool64, &boxes64, n, true)
}

// Buf32 is Buf for float32 storage.
func (a *Arena) Buf32(n int) []float32 {
	return arenaGet(&a.free32, &a.live32, &pool32, &boxes32, n, true)
}

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
	t.data = arenaGet(&a.free64, &a.live64, &pool64, &boxes64, n, zero)
	if !zero && poisonWriteOnce.Load() {
		nan := math.NaN()
		for i := range t.data {
			t.data[i] = nan
		}
	}
	a.liveT = append(a.liveT, t)
	return t
}

// F32 returns a zero-filled float32 tensor of the given shape backed by
// arena storage, with the same lifetime contract as Tensor.
func (a *Arena) F32(shape ...int) *F32 {
	n := checkShape(shape)
	if !poolEnabled.Load() {
		return NewF32(shape...)
	}
	var f *F32
	if l := len(a.freeF); l > 0 {
		f = a.freeF[l-1]
		a.freeF = a.freeF[:l-1]
		f.shape = append(f.shape[:0], shape...)
	} else {
		f = &F32{shape: append([]int(nil), shape...)}
	}
	f.data = a.Buf32(n)
	a.liveF = append(a.liveF, f)
	return f
}

// Reset recycles every live arena allocation onto the freelists. All
// tensors and buffers previously handed out become invalid: their storage
// will be reissued by subsequent allocations. Callers invoke
// it at points where nothing from the previous round is referenced (after
// an optimizer step, after an inference chunk's result has been copied
// out).
func (a *Arena) Reset() {
	for b := range a.live64 {
		a.free64[b] = append(a.free64[b], a.live64[b]...)
		a.live64[b] = a.live64[b][:0]
	}
	for b := range a.live32 {
		a.free32[b] = append(a.free32[b], a.live32[b]...)
		a.live32[b] = a.live32[b][:0]
	}
	// Detach recycled wrappers from their storage so a retained reference
	// fails fast (nil data) instead of silently reading reissued memory.
	for _, t := range a.liveT {
		t.data = nil
	}
	a.freeT = append(a.freeT, a.liveT...)
	a.liveT = a.liveT[:0]
	for _, f := range a.liveF {
		f.data = nil
	}
	a.freeF = append(a.freeF, a.liveF...)
	a.liveF = a.liveF[:0]
}

// Release returns all arena storage — live and free — to the global pool
// and empties the arena. The arena remains usable afterwards; it simply
// starts cold.
func (a *Arena) Release() {
	a.Reset()
	for b := range a.free64 {
		for _, buf := range a.free64[b] {
			PutBuf(buf)
		}
		a.free64[b] = nil
		a.live64[b] = nil
	}
	for b := range a.free32 {
		for _, buf := range a.free32[b] {
			PutBuf32(buf)
		}
		a.free32[b] = nil
		a.live32[b] = nil
	}
	a.freeT, a.liveT = nil, nil
	a.freeF, a.liveF = nil, nil
}
