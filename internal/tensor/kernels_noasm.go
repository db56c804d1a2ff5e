//go:build !amd64

package tensor

// useAVX2 is always false off amd64: the float64 products run on the
// generic Go kernels.
var useAVX2 = false

// gemm4x8AVX2 exists off amd64 only so the float64 drivers compile;
// useAVX2 keeps it unreachable.
func gemm4x8AVX2(c *float64, ldc int, a *float64, lda, ainc int, b *float64, ldb, steps int) {
	panic("tensor: AVX2 kernel called off amd64")
}
