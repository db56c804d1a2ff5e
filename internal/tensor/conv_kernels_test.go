package tensor

import (
	"fmt"
	"math"
	"testing"

	"tdfm/internal/xrand"
)

// The reference transforms below are the im2col and col2im loops the
// write-every-element kernels replaced, kept verbatim as the bit-for-bit
// specification. They rely on a zero-filled destination: im2col leaves
// padded positions untouched, col2im accumulates from +0.

// refIm2col returns the receptive-field rows of x [n,c,h,w].
func refIm2col(x []float64, n, c, h, w int, g ConvGeom) []float64 {
	oh, ow := g.OutSize(h, w)
	colStride := c * g.KH * g.KW
	dst := make([]float64, n*oh*ow*colStride)
	for img := 0; img < n; img++ {
		base := img * c * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*g.StrideH - g.PadH
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*g.StrideW - g.PadW
				row := ((img*oh+oy)*ow + ox) * colStride
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < g.KH; ky++ {
						iy := iy0 + ky
						dstOff := row + (ch*g.KH+ky)*g.KW
						if iy < 0 || iy >= h {
							continue // leave zeros
						}
						src := chBase + iy*w
						for kx := 0; kx < g.KW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							dst[dstOff+kx] = x[src+ix]
						}
					}
				}
			}
		}
	}
	return dst
}

// refCol2im returns the scatter of column rows back into [n,c,h,w].
func refCol2im(cols []float64, n, c, h, w int, g ConvGeom) []float64 {
	oh, ow := g.OutSize(h, w)
	colStride := c * g.KH * g.KW
	dst := make([]float64, n*c*h*w)
	for img := 0; img < n; img++ {
		base := img * c * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*g.StrideH - g.PadH
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*g.StrideW - g.PadW
				row := ((img*oh+oy)*ow + ox) * colStride
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < g.KH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						src := row + (ch*g.KH+ky)*g.KW
						dstOff := chBase + iy*w
						for kx := 0; kx < g.KW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							dst[dstOff+ix] += cols[src+kx]
						}
					}
				}
			}
		}
	}
	return dst
}

// poisoned returns a NaN-filled destination of size elements inside
// guard sentinels, and the sentinel check.
func poisoned(size int) ([]float64, func() bool) {
	vals := make([]float64, size)
	for i := range vals {
		vals[i] = math.NaN()
	}
	return window(vals, 1)
}

// checkConvKernels runs im2colKernel and col2imKernel on NaN-poisoned
// destinations at the current parallelism and compares them with the
// reference loops bit for bit. Both inputs carry exact +0 and −0
// entries: a −0 column entry must come out of col2im as +0 + −0 = +0.
func checkConvKernels(t *testing.T, rng *xrand.RNG, n, c, h, w int, g ConvGeom) {
	t.Helper()
	oh, ow := g.OutSize(h, w)
	x := randOperand(rng.Split("x"), n*c*h*w)
	cols := randOperand(rng.Split("cols"), n*oh*ow*c*g.KH*g.KW)

	got, intact := poisoned(len(cols))
	im2colKernel(got, x, n, c, h, w, g)
	if i := sameBits(got, refIm2col(x, n, c, h, w, g)); i >= 0 {
		t.Fatalf("im2col: element %d = %v, reference %v", i, got[i], refIm2col(x, n, c, h, w, g)[i])
	}
	if !intact() {
		t.Fatal("im2col wrote outside the destination")
	}

	got, intact = poisoned(len(x))
	col2imKernel(got, cols, n, c, h, w, g)
	want := refCol2im(cols, n, c, h, w, g)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("col2im: element %d = %v, reference %v", i, got[i], want[i])
	}
	if !intact() {
		t.Fatal("col2im wrote outside the destination")
	}
}

// TestConvKernelsMatchReferenceBitwise pins im2col and col2im, which
// write every destination element themselves, to the reference loops on
// zero-filled memory: 1×1 windows at stride 1 (the nchwToRows and
// rowsToNCHW route) and stride 2, and 3×3 windows with padding 1 at
// stride 1 and 2, on square and non-square inputs, at 1, 2 and 4
// workers. The larger shape shards across workers for every geometry.
func TestConvKernelsMatchReferenceBitwise(t *testing.T) {
	geoms := []ConvGeom{
		{KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		{KH: 1, KW: 1, StrideH: 2, StrideW: 2},
		{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	}
	shapes := []struct{ n, c, h, w int }{
		{3, 2, 5, 5},
		{3, 2, 5, 8},
		{8, 64, 17, 16},
	}
	for _, par := range []int{1, 2, 4} {
		for _, g := range geoms {
			for _, s := range shapes {
				name := fmt.Sprintf("workers=%d/%dx%d-s%d-p%d/%dx%dx%dx%d", par, g.KH, g.KW, g.StrideH, g.PadH, s.n, s.c, s.h, s.w)
				t.Run(name, func(t *testing.T) {
					rng := xrand.New(17).Split(name)
					withParallelism(t, par, func() {
						checkConvKernels(t, rng, s.n, s.c, s.h, s.w, g)
					})
				})
			}
		}
	}
}
