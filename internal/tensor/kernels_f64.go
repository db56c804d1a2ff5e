package tensor

import "tdfm/internal/parallel"

// The products of Tensor.MatMul*: the AVX2 block kernel where the CPU
// has it, the Go kernels of kernels.go elsewhere. The AVX2
// paths tile the output into 4-row × 8-column blocks; rows past the last
// block and columns past the last strip run on the Go kernels, whose
// per-element arithmetic (one rounded multiply, then one rounded add, in
// ascending p from the destination's value) is the same, so every path
// and every mix of paths produces the same bits. Shards are whole blocks,
// so a worker count never pushes a block onto the Go tail.

// avx2Block bounds-checks the last element of every operand the
// 4-row × 8-column block reads or writes, then runs gemm4x8AVX2 on it.
// All strides are non-negative and steps ≥ 1, so the first and last
// elements bound every access: a wrong stride panics here instead of
// reading or writing outside the slices.
func avx2Block(c []float64, ldc int, a []float64, lda, ainc int, b []float64, ldb, steps int) {
	_ = c[3*ldc+7]
	_ = a[3*lda+(steps-1)*ainc]
	_ = b[(steps-1)*ldb+7]
	gemm4x8AVX2(&c[0], ldc, &a[0], lda, ainc, &b[0], ldb, steps)
}

// gemmAVX2Range applies the gemm row window [lo, hi) on the AVX2 kernel,
// with the Go kernel for the rows past the last block and the columns
// past the last strip.
func gemmAVX2Range(dst, a, b []float64, k, n, lo, hi int) {
	n8 := n &^ 7
	i := lo
	for ; i+4 <= hi; i += 4 {
		for j := 0; j < n8; j += 8 {
			avx2Block(dst[i*n+j:], n, a[i*k:], k, 1, b[j:], n, k)
		}
	}
	gemmRange(dst, a, b, k, n, lo, i, n8, n)
	gemmRange(dst, a, b, k, n, i, hi, 0, n)
}

// gemmF64 is gemm for float64 operands, sharded over 4-row blocks on the
// AVX2 path.
func gemmF64(dst, a, b []float64, m, k, n int) {
	if !useAVX2 {
		gemm(dst, a, b, m, k, n)
		return
	}
	if w := parWorkers(m * k * n); w >= 2 {
		parallel.For((m+3)/4, w, func(lo, hi int) { gemmAVX2Range(dst, a, b, k, n, 4*lo, min(4*hi, m)) })
		return
	}
	gemmAVX2Range(dst, a, b, k, n, 0, m)
}

// gemmTransAAVX2Range applies the gemmTransA column window [jlo, jhi) on
// the AVX2 kernel, in the same transAChunk steps as gemmTransARange, with
// the Go kernel for the rows past the last block and the columns past
// the last strip.
func gemmTransAAVX2Range(dst, a, b []float64, k, m, n, jlo, jhi int) {
	m4 := m &^ 3
	j8 := jlo + (jhi-jlo)&^7
	for p0 := 0; p0 < k; p0 += transAChunk {
		steps := min(transAChunk, k-p0)
		for i := 0; i < m4; i += 4 {
			for j := jlo; j < j8; j += 8 {
				avx2Block(dst[i*n+j:], n, a[p0*m+i:], 1, m, b[p0*n+j:], n, steps)
			}
		}
	}
	gemmTransARange(dst, a, b, k, m, n, 0, m4, j8, jhi)
	gemmTransARange(dst, a, b, k, m, n, m4, m, jlo, jhi)
}

// gemmTransAF64 is gemmTransA for float64 operands, sharded over
// 8-column strips on the AVX2 path.
func gemmTransAF64(dst, a, b []float64, k, m, n int) {
	if !useAVX2 {
		gemmTransA(dst, a, b, k, m, n)
		return
	}
	if w := parWorkers(k * m * n); w >= 2 {
		parallel.For((n+7)/8, w, func(lo, hi int) { gemmTransAAVX2Range(dst, a, b, k, m, n, 8*lo, min(8*hi, n)) })
		return
	}
	gemmTransAAVX2Range(dst, a, b, k, m, n, 0, n)
}

// gemmTransBF64 is gemmTransB for float64 operands. On the AVX2 path it
// packs bᵀ [k,n] into the caller's scratch bt once and runs gemmF64 on
// the zeroed destination: each element still sums a[i,p]·b[j,p] from +0
// in ascending p. The portable path does not touch bt.
func gemmTransBF64(dst, a, b, bt []float64, m, k, n int) {
	if !useAVX2 {
		gemmTransB(dst, a, b, m, k, n)
		return
	}
	for j := 0; j < n; j++ {
		for p, v := range b[j*k : (j+1)*k] {
			bt[p*n+j] = v
		}
	}
	clear(dst[:m*n])
	gemmF64(dst, a, bt, m, k, n)
}
