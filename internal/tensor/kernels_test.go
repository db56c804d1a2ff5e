package tensor

import (
	"fmt"
	"math"
	"testing"

	"tdfm/internal/xrand"
)

// The reference products below are the textbook i-k-j and p-outer loops
// the register-blocked kernels replaced, kept verbatim (zero-skip
// included) as the bit-for-bit specification: every output element sums
// its terms one at a time in ascending p, starting from +0.

// refGemm returns a × b for a [m,k], b [k,n].
func refGemm(a, b []float64, m, k, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		ti := a[i*k : (i+1)*k]
		oi := out[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ti[p]
			if av == 0 {
				continue
			}
			up := b[p*n : (p+1)*n]
			for j, bv := range up {
				oi[j] += av * bv
			}
		}
	}
	return out
}

// refGemmTransA returns aᵀ × b for a [k,m], b [k,n].
func refGemmTransA(a, b []float64, k, m, n int) []float64 {
	out := make([]float64, m*n)
	for p := 0; p < k; p++ {
		tp := a[p*m : (p+1)*m]
		up := b[p*n : (p+1)*n]
		for i, av := range tp {
			if av == 0 {
				continue
			}
			oi := out[i*n : (i+1)*n]
			for j, bv := range up {
				oi[j] += av * bv
			}
		}
	}
	return out
}

// refGemmTransB returns a × bᵀ for a [m,k], b [n,k].
func refGemmTransB(a, b []float64, m, k, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		ti := a[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			uj := b[j*k : (j+1)*k]
			var s float64
			for p, av := range ti {
				s += av * uj[p]
			}
			out[i*n+j] = s
		}
	}
	return out
}

// randOperand returns size normal values with exact +0 and −0 planted
// every few elements, so the signed-zero argument for dropping the
// zero-skip branch is exercised in both operands.
func randOperand(rng *xrand.RNG, size int) []float64 {
	out := make([]float64, size)
	negZero := math.Copysign(0, -1)
	for i := range out {
		switch rng.IntN(7) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = negZero
		default:
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

// sameBits reports the first index at which got and want differ in their
// IEEE-754 bits (signed zeros included), or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// hostAVX2 records whether this host runs the AVX2 kernel, before any
// test flips useAVX2.
var hostAVX2 = useAVX2

// withAVX2 runs body with the float64 products on the AVX2 kernel (on)
// or on the Go fallback (off), skipping the AVX2 leg on hosts without it.
func withAVX2(t testing.TB, on bool, body func()) {
	t.Helper()
	if on && !hostAVX2 {
		t.Skip("host has no AVX2: the float64 products run on the Go kernels only")
	}
	defer func() { useAVX2 = hostAVX2 }()
	useAVX2 = on
	body()
}

// avx2Legs runs body as one subtest per float64 path: the Go fallback
// and the AVX2 kernel.
func avx2Legs(t *testing.T, body func(t *testing.T)) {
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("avx2=%v", on), func(t *testing.T) {
			withAVX2(t, on, func() { body(t) })
		})
	}
}

// guard is the sentinel planted around every destination window, so a
// kernel that writes outside its slice is caught.
const guard = -12345.5

// window copies vals into a buffer, off elements from its start and with
// guard sentinels on both sides, and returns the copy and a check that
// reports whether the sentinels survived. An odd off puts float64 operands off
// every 16- and 32-byte boundary, so the AVX2 kernel's loads and stores
// run unaligned.
func window(vals []float64, off int) ([]float64, func() bool) {
	const pad = 9
	buf := make([]float64, off+len(vals)+pad)
	for i := range buf {
		buf[i] = guard
	}
	w := buf[off : off+len(vals) : off+len(vals)]
	copy(w, vals)
	return w, func() bool {
		for _, v := range buf[:off] {
			if v != guard {
				return false
			}
		}
		for _, v := range buf[off+len(vals):] {
			if v != guard {
				return false
			}
		}
		return true
	}
}

// checkKernelsAgainstReference runs all three products of one shape at
// the current parallelism, with every operand and destination starting
// off elements into its buffer, and compares every element with the
// reference loops bit for bit.
func checkKernelsAgainstReference(t *testing.T, rng *xrand.RNG, label string, m, k, n, off int) {
	t.Helper()
	a, _ := window(randOperand(rng.Split("a"), m*k), off)   // [m,k]
	b, _ := window(randOperand(rng.Split("b"), k*n), off)   // [k,n]
	at, _ := window(randOperand(rng.Split("at"), k*m), off) // [k,m]
	bt, _ := window(randOperand(rng.Split("bt"), n*k), off) // [n,k]
	// gemmTransB's packing scratch [k,n] starts from garbage as well.
	scratch, scratchIntact := window(randOperand(rng.Split("scratch"), k*n), off)

	for _, c := range []struct {
		name string
		run  func(dst []float64)
		want []float64
		init []float64
	}{
		{"gemm", func(dst []float64) { gemmF64(dst, a, b, m, k, n) }, refGemm(a, b, m, k, n), make([]float64, m*n)},
		{"gemmTransA", func(dst []float64) { gemmTransAF64(dst, at, b, k, m, n) }, refGemmTransA(at, b, k, m, n), make([]float64, m*n)},
		// gemmTransB overwrites, so start from garbage rather than zeros.
		{"gemmTransB", func(dst []float64) { gemmTransBF64(dst, a, bt, scratch, m, k, n) }, refGemmTransB(a, bt, m, k, n), randOperand(rng.Split("dst"), m*n)},
	} {
		got, intact := window(c.init, off)
		c.run(got)
		if i := sameBits(got, c.want); i >= 0 {
			t.Fatalf("%s %s: element %d = %v, reference %v", label, c.name, i, got[i], c.want[i])
		}
		if !intact() {
			t.Fatalf("%s %s: wrote outside the destination", label, c.name)
		}
	}
	if !scratchIntact() {
		t.Fatalf("%s gemmTransB: wrote outside the scratch", label)
	}
}

// TestKernelsMatchReferenceBitwise pins the products to the reference
// loops on both paths (AVX2 and Go) and worker counts 1, 2 and 4, over
// shapes that reach every block and tail: a lone
// row (the single-request Dense shape), row counts that leave one to
// three rows after the last 4-row block and one or two after the last
// 3-row Go block (the aliased rows), widths that leave 0 to 7 columns
// after the last 8-column strip and an odd column for the Go kernel,
// k = 1, inner dimensions around gemmTransA's chunk, gemmTransA widths
// whose strips straddle the shard boundaries, and products large enough
// to shard across workers. Every shape also runs on operands that start
// one element into their buffers (unaligned vector loads and stores).
func TestKernelsMatchReferenceBitwise(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1},
		{1, 432, 48},
		{1, 97, 43},
		{2, 5, 4},
		{3, 1, 7},
		{7, 13, 3},
		{9, 288, 32},
		{33, 27, 8},
		{64, 1, 129},
		{37, 61, 43},
		{5, transAChunk - 1, 6},
		{6, transAChunk, 5},
		{11, transAChunk + 1, 9},
		{4, 2*transAChunk + 3, 13},
		{301, 120, 6},
		{4, 1, 8},
		{4, 27, 8},
		{5, 27, 12},
		{6, 9, 16},
		{7, 33, 43},
		{9, 288, 64},
		{13, 300, 24},
		{66, transAChunk + 5, 40},
	}
	avx2Legs(t, func(t *testing.T) {
		for _, workers := range []int{1, 2, 4} {
			withParallelism(t, workers, func() {
				for _, s := range shapes {
					m, k, n := s[0], s[1], s[2]
					for _, off := range []int{0, 1} {
						rng := xrand.New(uint64(m*1000003 + k*1009 + n))
						label := fmt.Sprintf("[%d,%d,%d]+%d @%dw", m, k, n, off, workers)
						checkKernelsAgainstReference(t, rng, label, m, k, n, off)
					}
				}
			})
		}
	})
}

// TestKernelsZeroTimesInfIsNaN pins the products' one non-finite rule:
// with no zero-skip branch, a zero in either operand times an infinity in
// the other contributes a NaN, in every product, block and tail alike, on
// both float64 paths. [4,2,5] has a leftover Go row and an odd last
// column; [5,2,9] adds a 4×8 AVX2 block with a row and a column tail.
func TestKernelsZeroTimesInfIsNaN(t *testing.T) {
	fill := func(size int, v float64) []float64 {
		s := make([]float64, size)
		for i := range s {
			s[i] = v
		}
		return s
	}
	inf := math.Inf(1)
	avx2Legs(t, func(t *testing.T) {
		for _, shape := range [][3]int{{4, 2, 5}, {5, 2, 9}} {
			m, k, n := shape[0], shape[1], shape[2]
			for _, c := range []struct {
				name        string
				left, right float64
			}{
				{"zero × inf", 0, inf},
				{"inf × zero", inf, 0},
			} {
				products := map[string][]float64{
					"gemm":       make([]float64, m*n),
					"gemmTransA": make([]float64, m*n),
					"gemmTransB": make([]float64, m*n),
				}
				gemmF64(products["gemm"], fill(m*k, c.left), fill(k*n, c.right), m, k, n)
				gemmTransAF64(products["gemmTransA"], fill(k*m, c.left), fill(k*n, c.right), k, m, n)
				gemmTransBF64(products["gemmTransB"], fill(m*k, c.left), fill(n*k, c.right), make([]float64, k*n), m, k, n)
				for name, out := range products {
					for i, v := range out {
						if !math.IsNaN(v) {
							t.Fatalf("%v %s %s: element %d = %v, want NaN", shape, c.name, name, i, v)
						}
					}
				}
			}
		}
	})
}
