package tensor

// useAVX2 routes the float64 products through gemm4x8AVX2. Tests flip it
// to exercise the Go fallback on AVX2 hardware.
var useAVX2 = hasAVX2()

// gemm4x8AVX2 is the 4-row × 8-column float64 block of
// kernels_amd64.s: for r in 0..3, c[r·ldc : +8] += Σs a[r·lda + s·ainc]
// · b[s·ldb : +8], s ascending. It does no bounds checks; call it only
// through avx2Block.
//
//go:noescape
func gemm4x8AVX2(c *float64, ldc int, a *float64, lda, ainc int, b *float64, ldb, steps int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches: CPUID leaf 7 EBX bit 5, leaf 1
// ECX bit 27 (OSXSAVE, which makes XGETBV legal), and XCR0 bits 1 and 2
// (XMM and YMM state).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
