#include "textflag.h"

// func gemm4x8AVX2(c *float64, ldc int, a *float64, lda, ainc int, b *float64, ldb, steps int)
//
// For r in 0..3: c[r·ldc : +8] += Σs a[r·lda + s·ainc] · b[s·ldb : +8],
// s ascending from 0 to steps-1. Strides are in elements. Every lane
// rounds its product (VMULPD) and then its sum (VADDPD), the MULSD +
// ADDSD pair of the scalar Go kernels; there is deliberately no VFMADD.
//
// Registers: Y0-Y7 accumulate the 4×8 block (row r in Y2r, Y2r+1), Y8
// and Y9 hold the step's 8 values of b, Y10-Y13 the four broadcast
// values of a, and Y14 the pending product.
TEXT ·gemm4x8AVX2(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), DX
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R8
	MOVQ ainc+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R10
	MOVQ steps+56(FP), CX
	SHLQ $3, DX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (SI)(R8*2), R11 // a, row 2
	LEAQ (DI)(DX*2), R12 // c, row 2

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(DX*1), Y2
	VMOVUPD 32(DI)(DX*1), Y3
	VMOVUPD (R12), Y4
	VMOVUPD 32(R12), Y5
	VMOVUPD (R12)(DX*1), Y6
	VMOVUPD 32(R12)(DX*1), Y7

	TESTQ CX, CX
	JLE   store

loop:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(R8*1), Y11
	VBROADCASTSD (R11), Y12
	VBROADCASTSD (R11)(R8*1), Y13
	VMULPD       Y8, Y10, Y14
	VADDPD       Y14, Y0, Y0
	VMULPD       Y9, Y10, Y14
	VADDPD       Y14, Y1, Y1
	VMULPD       Y8, Y11, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y9, Y11, Y14
	VADDPD       Y14, Y3, Y3
	VMULPD       Y8, Y12, Y14
	VADDPD       Y14, Y4, Y4
	VMULPD       Y9, Y12, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y9, Y13, Y14
	VADDPD       Y14, Y7, Y7
	ADDQ         R9, SI
	ADDQ         R9, R11
	ADDQ         R10, BX
	DECQ         CX
	JNZ          loop

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(DX*1)
	VMOVUPD Y3, 32(DI)(DX*1)
	VMOVUPD Y4, (R12)
	VMOVUPD Y5, 32(R12)
	VMOVUPD Y6, (R12)(DX*1)
	VMOVUPD Y7, 32(R12)(DX*1)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
//
// The low word of XCR0, the OS-enabled state components.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
