// Package poolown seeds pooled-buffer ownership violations for the
// dataflow pass: leaks on early-return paths, use after release,
// double release, escapes out of the owning function, and arena
// use-after-reset — next to the clean idioms (defer, all-path release,
// ownership transfer by return) that must stay silent.
package poolown

import (
	"errors"

	"tdfm/internal/tensor"
)

// sink keeps otherwise-dead values alive for the fixtures.
var sink []float64

// LeakOnErrorPath is the acceptance case: the buffer is returned to
// the pool on the happy path but leaks when the work fails.
func LeakOnErrorPath(n int) error {
	buf := tensor.GetBuf(n) // want "may not be released on every return path"
	if n > 1024 {
		return errors.New("too big") // leaks buf
	}
	work(buf)
	tensor.PutBuf(buf)
	return nil
}

// DeferRelease is the canonical clean shape: one defer covers every
// path, early returns included.
func DeferRelease(n int) error {
	buf := tensor.GetBuf(n)
	defer tensor.PutBuf(buf)
	if n > 1024 {
		return errors.New("too big")
	}
	work(buf)
	return nil
}

// BranchRelease releases on both arms explicitly: clean.
func BranchRelease(n int) {
	buf := tensor.GetBuf(n)
	if n%2 == 0 {
		work(buf)
		tensor.PutBuf(buf)
		return
	}
	tensor.PutBuf(buf)
}

// UseAfterRelease touches the buffer after it went back to the pool.
func UseAfterRelease(n int) float64 {
	buf := tensor.GetBuf(n)
	tensor.PutBuf(buf)
	return buf[0] // want "used after release"
}

// DoubleRelease returns the same buffer twice.
func DoubleRelease(n int) {
	buf := tensor.GetBuf(n)
	tensor.PutBuf(buf)
	tensor.PutBuf(buf) // want "double release"
}

// ConditionalRelease releases on one path and then again
// unconditionally: a may-double-release.
func ConditionalRelease(n int) {
	buf := tensor.GetBuf(n)
	if n > 4 {
		tensor.PutBuf(buf)
	}
	tensor.PutBuf(buf) // want "already have been released on some path"
}

// EscapeToGlobal parks a pooled buffer in a global.
func EscapeToGlobal(n int) {
	buf := tensor.GetBuf(n)
	sink = buf // want "stored into sink; it escapes"
}

// EscapeAtBirth stores the fresh allocation straight into a field.
type holder struct{ buf []float64 }

// Fill stores the allocation directly into its receiver.
func (h *holder) Fill(n int) {
	h.buf = tensor.GetBuf(n) // want "stored directly into h.buf"
}

// EscapeToChannel sends a pooled buffer away.
func EscapeToChannel(n int, ch chan []float64) {
	buf := tensor.GetBuf(n)
	ch <- buf // want "sent on a channel"
}

// EscapeToGoroutine hands a pooled buffer to a goroutine.
func EscapeToGoroutine(n int) {
	buf := tensor.GetBuf(n)
	go work(buf) // want "passed to a goroutine"
}

// EscapeToClosure captures a pooled buffer in a closure that leaves.
func EscapeToClosure(n int) func() {
	buf := tensor.GetBuf(n)
	return func() { work(buf) } // want "captured by a closure"
}

// TransferByReturn hands ownership to the caller: clean.
func TransferByReturn(n int) []float64 {
	buf := tensor.GetBuf(n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// AliasBorrow copies into another local; the original still owns and
// releases: clean.
func AliasBorrow(n int) {
	buf := tensor.GetBuf(n)
	view := buf
	work(view)
	tensor.PutBuf(buf)
}

// Discarded drops the only handle on the spot.
func Discarded(n int) {
	tensor.GetBuf(n) // want "result is discarded"
}

// PooledTensorLeak loses a NewPooled tensor on the error path.
func PooledTensorLeak(rows, cols int) (*tensor.Tensor, error) {
	t := tensor.NewPooled(rows, cols) // want "may not be released on every return path"
	if rows*cols > 1<<20 {
		return nil, errors.New("too big") // leaks t
	}
	return t, nil
}

// PooledTensorDefer releases through a deferred method call: clean.
func PooledTensorDefer(rows, cols int) float64 {
	t := tensor.NewPooled(rows, cols)
	defer t.Release()
	return t.Data()[0]
}

// ArenaUseAfterReset reads arena storage after the arena recycled it.
func ArenaUseAfterReset(a *tensor.Arena, n int) float64 {
	buf := a.Buf(n)
	work(buf)
	a.Reset()
	return buf[0] // want "used after a.Reset()"
}

// ArenaWriteOnceUseAfterReset reads a write-once arena tensor after the
// arena recycled it.
func ArenaWriteOnceUseAfterReset(a *tensor.Arena, n int) float64 {
	t := a.WriteOnce(n)
	t.Fill(1)
	a.Reset()
	return t.Data()[0] // want "used after a.Reset()"
}

// ArenaUseAfterRecycle reads a dead activation after RecycleSince
// returned it to the freelists; the kept output stays valid.
func ArenaUseAfterRecycle(a *tensor.Arena, x *tensor.Tensor) float64 {
	m := a.Mark()
	h := a.WriteOnceLike(x)
	h.Fill(1)
	out := a.TensorLike(h)
	out.AddIn(h)
	a.RecycleSince(m, out)
	return out.Data()[0] + h.Data()[0] // want "h is used after a.RecycleSince()"
}

// ArenaIndividualRelease calls Release on an arena tensor.
func ArenaIndividualRelease(a *tensor.Arena, n int) {
	t := a.Tensor(n, n)
	t.Release() // want "must not be released individually"
}

// ArenaScoped allocates, uses, and lets Reset reclaim: clean.
func ArenaScoped(a *tensor.Arena, n int) float64 {
	buf := a.Buf(n)
	for i := range buf {
		buf[i] = float64(i)
	}
	out := buf[n-1]
	a.Reset()
	return out
}

// PanicPathExempt only leaks on a panicking path: clean by policy (the
// GC reclaims pool storage during unwind).
func PanicPathExempt(n int) {
	buf := tensor.GetBuf(n)
	if n < 0 {
		panic("negative size")
	}
	tensor.PutBuf(buf)
}

// LoopDeferRelease registers one release per iteration: clean (the
// defer is on every path out of the loop).
func LoopDeferRelease(sizes []int) {
	for _, n := range sizes {
		buf := tensor.GetBuf(n)
		defer tensor.PutBuf(buf)
		work(buf)
	}
}

// work stands in for a callee that borrows the buffer.
func work(buf any) { _ = buf }
