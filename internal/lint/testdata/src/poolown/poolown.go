// Package poolown seeds arena-contract violations for the dataflow
// pass: use after Reset, Release or RecycleSince, escapes out of the
// owning function, and discarded handouts — next to the clean idioms
// (use before the reset, the kept output of RecycleSince, a deferred
// Reset, a local borrow) that must stay silent.
package poolown

import "tdfm/internal/tensor"

// sink keeps otherwise-dead values alive for the fixtures.
var sink []float64

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

// ArenaReturnAfterRelease hands the caller storage its arena dropped.
func ArenaReturnAfterRelease(a *tensor.Arena, n int) *tensor.Tensor {
	t := a.Tensor(n)
	a.Release()
	return t // want "t is used after a.Release()"
}

// ArenaMaybeUseAfterReset resets on one path only: still a use after
// reset on that path.
func ArenaMaybeUseAfterReset(a *tensor.Arena, n int) float64 {
	buf := a.Buf(n)
	if n > 4 {
		a.Reset()
	}
	return buf[0] // want "used after a.Reset()"
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

// EscapeToGlobal parks an arena buffer in a global.
func EscapeToGlobal(a *tensor.Arena, n int) {
	buf := a.Buf(n)
	sink = buf // want "stored into sink; it escapes"
}

// EscapeToChannel sends an arena buffer away.
func EscapeToChannel(a *tensor.Arena, n int, ch chan []float64) {
	buf := a.Buf(n)
	ch <- buf // want "sent on a channel"
}

// EscapeToGoroutine hands an arena buffer to a goroutine.
func EscapeToGoroutine(a *tensor.Arena, n int) {
	buf := a.Buf(n)
	go work(buf) // want "passed to a goroutine"
}

// EscapeToClosure captures an arena buffer in a closure that leaves.
func EscapeToClosure(a *tensor.Arena, n int) func() {
	buf := a.Buf(n)
	return func() { work(buf) } // want "captured by a closure"
}

// Discarded drops the only handle on the spot.
func Discarded(a *tensor.Arena, n int) {
	a.Buf(n) // want "arena handout is discarded"
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

// DeferReset resets at exit, after every use: clean.
func DeferReset(a *tensor.Arena, n int) float64 {
	defer a.Reset()
	t := a.Tensor(n)
	t.Fill(2)
	return t.Data()[0]
}

// AliasBorrow copies into another local and passes it to a callee:
// clean.
func AliasBorrow(a *tensor.Arena, n int) {
	buf := a.Buf(n)
	view := buf
	work(view)
}

// OtherArena resets a different arena: clean.
func OtherArena(a, b *tensor.Arena, n int) float64 {
	buf := a.Buf(n)
	b.Reset()
	return buf[0]
}

// work stands in for a callee that borrows the buffer.
func work(buf any) { _ = buf }
