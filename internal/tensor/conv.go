package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window
// applied to an input of spatial size H×W.
type ConvGeom struct {
	KH, KW     int // kernel size
	StrideH    int
	StrideW    int
	PadH, PadW int // symmetric zero padding
}

// OutSize returns the output spatial dimensions for an input of size h×w.
func (g ConvGeom) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*g.PadH-g.KH)/g.StrideH + 1
	ow = (w+2*g.PadW-g.KW)/g.StrideW + 1
	return oh, ow
}

// Validate panics if the geometry is degenerate for an h×w input.
func (g ConvGeom) Validate(h, w int) {
	if g.KH <= 0 || g.KW <= 0 || g.StrideH <= 0 || g.StrideW <= 0 || g.PadH < 0 || g.PadW < 0 {
		panic(fmt.Sprintf("tensor: invalid conv geometry %+v", g))
	}
	oh, ow := g.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v produces empty output for %dx%d input", g, h, w))
	}
}

// SamePad returns the padding that keeps output size equal to input size for
// stride-1 odd kernels (the only "same" case the model zoo uses).
func SamePad(k int) int { return (k - 1) / 2 }

// Im2Col unrolls x, an [N, C, H, W] tensor, into a matrix of shape
// [N*OH*OW, C*KH*KW] where each row holds one receptive field. Padding is
// implicit zeros. The resulting matrix right-multiplied by a [C*KH*KW, OutC]
// weight matrix computes the convolution for every output position.
func Im2Col(x *Tensor, g ConvGeom) *Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col needs [N,C,H,W], got %v", x.Shape()))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	g.Validate(h, w)
	oh, ow := g.OutSize(h, w)
	cols := New(n*oh*ow, c*g.KH*g.KW)
	// Each image writes a disjoint block of rows, so image-sharding is
	// bit-identical to the serial loop for any worker count (see
	// im2colKernel in kernels.go).
	im2colKernel(cols.data, x.data, n, c, h, w, g)
	return cols
}

// Im2ColInto is Im2Col with caller-owned output storage: dst must be an
// [N*OH*OW, C*KH*KW] tensor, whose every element is overwritten (padded
// positions get +0), so its prior contents do not matter — an
// Arena.WriteOnce handout will do. It returns dst and panics on a
// non-[N,C,H,W] input, degenerate geometry, or a destination of the
// wrong shape.
func Im2ColInto(dst, x *Tensor, g ConvGeom) *Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col needs [N,C,H,W], got %v", x.Shape()))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	g.Validate(h, w)
	oh, ow := g.OutSize(h, w)
	if dst.Dims() != 2 || dst.shape[0] != n*oh*ow || dst.shape[1] != c*g.KH*g.KW {
		panic(fmt.Sprintf("tensor: Im2ColInto destination %v, want [%d,%d]", dst.Shape(), n*oh*ow, c*g.KH*g.KW))
	}
	im2colKernel(dst.data, x.data, n, c, h, w, g)
	return dst
}

// Col2Im is the adjoint of Im2Col: it scatters (accumulating on overlap) a
// [N*OH*OW, C*KH*KW] column matrix back into an [N, C, H, W] tensor. Used to
// compute input gradients of convolution layers.
func Col2Im(cols *Tensor, n, c, h, w int, g ConvGeom) *Tensor {
	g.Validate(h, w)
	oh, ow := g.OutSize(h, w)
	colStride := c * g.KH * g.KW
	if cols.Dims() != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != colStride {
		panic(fmt.Sprintf("tensor: Col2Im got %v, want [%d,%d]", cols.Shape(), n*oh*ow, colStride))
	}
	x := New(n, c, h, w)
	// Overlapping windows only accumulate within one image, so sharding by
	// image keeps the scatter deterministic and race-free (see
	// col2imKernel in kernels.go).
	col2imKernel(x.data, cols.data, n, c, h, w, g)
	return x
}

// Col2ImInto is Col2Im with caller-owned output storage: dst is an
// [N,C,H,W] tensor whose every element is overwritten — the kernel clears
// each image before scattering into it, so its prior contents do not
// matter. The geometry is taken from dst's shape. It returns dst and
// panics on a column matrix that does not match dst's shape and
// geometry.
func Col2ImInto(dst, cols *Tensor, g ConvGeom) *Tensor {
	if dst.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Col2ImInto needs an [N,C,H,W] destination, got %v", dst.Shape()))
	}
	n, c, h, w := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	g.Validate(h, w)
	oh, ow := g.OutSize(h, w)
	colStride := c * g.KH * g.KW
	if cols.Dims() != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != colStride {
		panic(fmt.Sprintf("tensor: Col2Im got %v, want [%d,%d]", cols.Shape(), n*oh*ow, colStride))
	}
	col2imKernel(dst.data, cols.data, n, c, h, w, g)
	return dst
}

// NCHWToRows converts an [N, C, OH, OW] activation produced as a
// [N*OH*OW, C] matmul result laid out position-major back and forth.
// RowsToNCHW reinterprets rows (position-major [N*OH*OW, C]) as NCHW.
func RowsToNCHW(rows *Tensor, n, c, oh, ow int) *Tensor {
	if rows.Dims() != 2 || rows.shape[0] != n*oh*ow || rows.shape[1] != c {
		panic(fmt.Sprintf("tensor: RowsToNCHW got %v, want [%d,%d]", rows.Shape(), n*oh*ow, c))
	}
	out := New(n, c, oh, ow)
	rowsToNCHWKernel(out.data, rows.data, n, c, oh, ow)
	return out
}

// RowsToNCHWInto is RowsToNCHW with caller-owned output storage: the
// [N,C,OH,OW] geometry is taken from dst, whose every element is
// overwritten. It returns dst and panics if rows is not the matching
// position-major [N*OH*OW, C] matrix.
func RowsToNCHWInto(dst, rows *Tensor) *Tensor {
	if dst.Dims() != 4 {
		panic(fmt.Sprintf("tensor: RowsToNCHWInto needs an [N,C,OH,OW] destination, got %v", dst.Shape()))
	}
	n, c, oh, ow := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	if rows.Dims() != 2 || rows.shape[0] != n*oh*ow || rows.shape[1] != c {
		panic(fmt.Sprintf("tensor: RowsToNCHW got %v, want [%d,%d]", rows.Shape(), n*oh*ow, c))
	}
	rowsToNCHWKernel(dst.data, rows.data, n, c, oh, ow)
	return dst
}

// NCHWToRows converts an [N, C, OH, OW] tensor to position-major rows
// [N*OH*OW, C]; the inverse of RowsToNCHW.
func NCHWToRows(x *Tensor) *Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: NCHWToRows needs [N,C,H,W], got %v", x.Shape()))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := New(n*h*w, c)
	nchwToRowsKernel(out.data, x.data, n, c, h, w)
	return out
}

// NCHWToRowsInto is NCHWToRows with caller-owned output storage: dst must
// be the position-major [N*H*W, C] matrix for x's shape; every element is
// overwritten. It returns dst and panics on a shape mismatch.
func NCHWToRowsInto(dst, x *Tensor) *Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: NCHWToRows needs [N,C,H,W], got %v", x.Shape()))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if dst.Dims() != 2 || dst.shape[0] != n*h*w || dst.shape[1] != c {
		panic(fmt.Sprintf("tensor: NCHWToRowsInto destination %v, want [%d,%d]", dst.Shape(), n*h*w, c))
	}
	nchwToRowsKernel(dst.data, x.data, n, c, h, w)
	return dst
}
