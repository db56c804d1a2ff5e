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
func refGemm[E element](a, b []E, m, k, n int) []E {
	out := make([]E, m*n)
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
func refGemmTransA[E element](a, b []E, k, m, n int) []E {
	out := make([]E, m*n)
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
func refGemmTransB[E element](a, b []E, m, k, n int) []E {
	out := make([]E, m*n)
	for i := 0; i < m; i++ {
		ti := a[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			uj := b[j*k : (j+1)*k]
			var s E
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
func randOperand[E element](rng *xrand.RNG, size int) []E {
	out := make([]E, size)
	negZero := math.Copysign(0, -1)
	for i := range out {
		switch rng.IntN(7) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = E(negZero)
		default:
			out[i] = E(rng.NormFloat64())
		}
	}
	return out
}

// sameBits reports the first index at which got and want differ in their
// IEEE-754 bits (float32 widens to float64 exactly, signed zeros
// included), or -1.
func sameBits[E element](got, want []E) int {
	for i := range want {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			return i
		}
	}
	return -1
}

// checkKernelsAgainstReference runs all three products of one shape at
// the current parallelism and compares every element with the reference
// loops bit for bit.
func checkKernelsAgainstReference[E element](t *testing.T, rng *xrand.RNG, label string, m, k, n int) {
	t.Helper()
	a := randOperand[E](rng.Split("a"), m*k)   // [m,k]
	b := randOperand[E](rng.Split("b"), k*n)   // [k,n]
	at := randOperand[E](rng.Split("at"), k*m) // [k,m]
	bt := randOperand[E](rng.Split("bt"), n*k) // [n,k]

	got := make([]E, m*n)
	gemm(got, a, b, m, k, n)
	if i := sameBits(got, refGemm(a, b, m, k, n)); i >= 0 {
		t.Fatalf("%s gemm: element %d = %v, reference %v", label, i, got[i], refGemm(a, b, m, k, n)[i])
	}
	got = make([]E, m*n)
	gemmTransA(got, at, b, k, m, n)
	if i := sameBits(got, refGemmTransA(at, b, k, m, n)); i >= 0 {
		t.Fatalf("%s gemmTransA: element %d = %v, reference %v", label, i, got[i], refGemmTransA(at, b, k, m, n)[i])
	}
	// gemmTransB overwrites, so start from garbage rather than zeros.
	got = randOperand[E](rng.Split("dst"), m*n)
	gemmTransB(got, a, bt, m, k, n)
	if i := sameBits(got, refGemmTransB(a, bt, m, k, n)); i >= 0 {
		t.Fatalf("%s gemmTransB: element %d = %v, reference %v", label, i, got[i], refGemmTransB(a, bt, m, k, n)[i])
	}
}

// TestKernelsMatchReferenceBitwise pins the micro-kernels to the
// reference loops for every product, both precisions and worker counts 1,
// 2 and 4, over shapes that reach every block and tail: a lone row (the
// single-request Dense shape), row counts that leave one or two rows
// after the last full block (the aliased rows), odd widths (the column
// tail), k = 1, inner dimensions around gemmTransA's chunk, and products
// large enough to shard across workers.
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
	}
	for _, workers := range []int{1, 2, 4} {
		withParallelism(t, workers, func() {
			for _, s := range shapes {
				m, k, n := s[0], s[1], s[2]
				rng := xrand.New(uint64(m*1000003 + k*1009 + n))
				label := fmt.Sprintf("[%d,%d,%d] @%dw", m, k, n, workers)
				checkKernelsAgainstReference[float64](t, rng.Split("f64"), label+" f64", m, k, n)
				checkKernelsAgainstReference[float32](t, rng.Split("f32"), label+" f32", m, k, n)
			}
		})
	}
}

// TestKernelsZeroTimesInfIsNaN pins the products' one non-finite rule:
// with no zero-skip branch, a zero in either operand times an infinity in
// the other contributes a NaN, in every product, block and tail alike.
func TestKernelsZeroTimesInfIsNaN(t *testing.T) {
	const m, k, n = 4, 2, 5 // a leftover row and an odd last column
	fill := func(size int, v float64) []float64 {
		s := make([]float64, size)
		for i := range s {
			s[i] = v
		}
		return s
	}
	inf := math.Inf(1)
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
		gemm(products["gemm"], fill(m*k, c.left), fill(k*n, c.right), m, k, n)
		gemmTransA(products["gemmTransA"], fill(k*m, c.left), fill(k*n, c.right), k, m, n)
		gemmTransB(products["gemmTransB"], fill(m*k, c.left), fill(n*k, c.right), m, k, n)
		for name, out := range products {
			for i, v := range out {
				if !math.IsNaN(v) {
					t.Fatalf("%s %s: element %d = %v, want NaN", c.name, name, i, v)
				}
			}
		}
	}
}
