package tensor

import "tdfm/internal/parallel"

// Compute kernels of the tensor type. Every kernel shards over disjoint
// output regions and keeps each output element's arithmetic inside one
// shard, so results are bit-identical at any worker count and batch size.
//
// The three matrix products (gemm, gemmTransA, gemmTransB) run on
// register-blocked micro-kernels. A block of 3 output rows × 2 output
// columns keeps its six accumulators in locals across the whole inner
// dimension, so each step loads 3 left and 2 right operands for 6
// multiply-adds instead of loading and storing an output element per
// term. Six is the most accumulators the compiler keeps in registers: it
// schedules a step's multiplies ahead of its adds, so a block needs a
// register per accumulator and per pending product. Six of each plus the
// three left operands fit in the 15 vector registers Go code may use on
// amd64; a 2×4 block's eight of each do not, and it spills every step.
// The micro-kernels are separate functions because the compiler
// allocates registers for a small loop far better than for the same loop
// nested in a driver. Rows left over at the end of a window run through
// the same block with the missing rows aliased to the window's last row:
// the copies compute identical values and store them more than once. An
// odd last column falls to a scalar loop. Whichever path computes an
// element, it accumulates its terms one at a time in ascending p, the
// order of the textbook triple loop.
//
// These Go products serve CPUs without AVX2. On amd64 with AVX2 the
// products of Tensor.MatMul* run on a 4×8 assembly block instead
// (kernels_f64.go, kernels_amd64.s), with these kernels computing its row
// and column tails; its per-lane multiply then add rounds exactly as the
// scalar code does, so every path yields the same bits.
//
// Every product term is written float64(x*y). The explicit conversion rounds
// the product before the add, which the Go spec guarantees and which
// stops the compiler from fusing the pair into one fused multiply-add, as
// it otherwise does on arm64: the single rounding would change bits
// across architectures. `make nofma` checks the arm64 assembly.
//
// Non-finite rule: the products have no zero-skip branch, so a zero in
// one operand times an infinity or NaN in the other contributes a NaN
// (0·Inf → NaN) in all three products alike. For finite operands the
// missing branch changes no bit: an accumulator starts at +0 (the
// zero-filled destination), a round-to-nearest sum that starts at +0
// never becomes −0, and adding ±0 leaves any other value unchanged.
//
// Every kernel's shard body lives in a named ...Range function and the
// kernel branches on parWorkers before building the shard closure: the
// serial path (small operands, or a single-worker cap) performs no
// closure allocation, which keeps the training loop's steady-state
// allocation count flat.
//
// Kernels own the initialization of what they write. The accumulating
// products (gemm, gemmTransA) and sumRows add into their destination and
// need it zero-filled, as New and the zero-filling Arena handouts return
// it. Every other kernel writes each destination element itself and
// accepts any prior contents, an Arena.WriteOnce handout included:
// gemmTransB overwrites, the AVX2 gemmTransBF64 packs bᵀ over its
// scratch and clears its destination before it accumulates, im2col
// writes +0 into padded positions, col2im clears each image inside its
// shard before scattering into it, and the layout transforms
// (nchwToRows, rowsToNCHW) copy. A 1×1 stride-1 unpadded im2col is
// exactly nchwToRows and runs as it; the matching col2im is the inverse
// transpose storing +0 + v, the sum a cleared destination would hold, so
// a −0 entry still comes out +0.

// rowTriple returns the rows of the block that starts at row i of a
// window ending at hi: i, i+1 and i+2, with rows past the window replaced
// by its last row.
func rowTriple(i, hi int) (int, int, int) {
	return i, min(i+1, hi-1), min(i+2, hi-1)
}

// dotTriple returns c0, c1 and c2 plus Σs x[o+s·xs]·y[yo+s·ys] over steps
// terms in ascending s, for o = o0, o1 and o2: a block's three output
// elements in an odd last column.
func dotTriple(c0, c1, c2 float64, x []float64, o0, o1, o2, xs int, y []float64, yo, ys, steps int) (float64, float64, float64) {
	for ; steps > 0; steps-- {
		v := y[yo]
		c0 += float64(x[o0] * v)
		c1 += float64(x[o1] * v)
		c2 += float64(x[o2] * v)
		o0 += xs
		o1 += xs
		o2 += xs
		yo += ys
	}
	return c0, c1, c2
}

// gemmBlock accumulates rows a0, a1 and a2 times the 2-column strip of b
// that starts at b[0] (row stride n) into c0[:2], c1[:2] and c2[:2].
func gemmBlock(c0, c1, c2, a0, a1, a2, b []float64, n int) {
	c0, c1, c2 = c0[:2:2], c1[:2:2], c2[:2:2]
	a1, a2 = a1[:len(a0)], a2[:len(a0)]
	c00, c01 := c0[0], c0[1]
	c10, c11 := c1[0], c1[1]
	c20, c21 := c2[0], c2[1]
	off := 0
	for p, x0 := range a0 {
		x1, x2 := a1[p], a2[p]
		y := b[off : off+2 : off+2]
		v := y[0]
		c00 += float64(x0 * v)
		c10 += float64(x1 * v)
		c20 += float64(x2 * v)
		v = y[1]
		c01 += float64(x0 * v)
		c11 += float64(x1 * v)
		c21 += float64(x2 * v)
		off += n
	}
	c0[0], c0[1] = c00, c01
	c1[0], c1[1] = c10, c11
	c2[0], c2[1] = c20, c21
}

// gemmRange applies the gemm window of rows [lo, hi) × columns [jlo,
// jhi): dst[i,j] += Σp a[i,p]·b[p,j].
func gemmRange(dst, a, b []float64, k, n, lo, hi, jlo, jhi int) {
	for i := lo; i < hi; i += 3 {
		r0, r1, r2 := rowTriple(i, hi)
		a0, a1, a2 := a[r0*k:(r0+1)*k], a[r1*k:(r1+1)*k], a[r2*k:(r2+1)*k]
		d0, d1, d2 := dst[r0*n:(r0+1)*n], dst[r1*n:(r1+1)*n], dst[r2*n:(r2+1)*n]
		j := jlo
		for ; j+2 <= jhi; j += 2 {
			gemmBlock(d0[j:], d1[j:], d2[j:], a0, a1, a2, b[j:], n)
		}
		if j < jhi {
			d0[j], d1[j], d2[j] = dotTriple(d0[j], d1[j], d2[j], a, r0*k, r1*k, r2*k, 1, b, j, n, k)
		}
	}
}

// gemm computes dst += a × b for row-major a [m,k], b [k,n], dst [m,n],
// sharded over output rows. dst must be zero-filled for a plain product.
func gemm(dst, a, b []float64, m, k, n int) {
	if w := parWorkers(m * k * n); w >= 2 {
		parallel.For(m, w, func(lo, hi int) { gemmRange(dst, a, b, k, n, lo, hi, 0, n) })
		return
	}
	gemmRange(dst, a, b, k, n, 0, m, 0, n)
}

// transAChunk is how many inner-dimension steps gemmTransA applies to
// every output block before moving on to the next chunk. Both operands
// are walked down their columns, so without chunking each block would
// stream the full height of a and b; a chunk of rows stays in cache while
// every block of the shard consumes it. Accumulators are stored and
// reloaded between chunks, which is exact, so each element still sums in
// ascending p.
const transAChunk = 256

// transABlock accumulates steps terms of columns a[ao], a[ao+o1] and
// a[ao+o2] (row stride m) times the 2-column strip of b that starts at
// b[bo] (row stride n) into c0[:2], c1[:2] and c2[:2].
func transABlock(c0, c1, c2, a []float64, ao, o1, o2, m int, b []float64, bo, n, steps int) {
	c0, c1, c2 = c0[:2:2], c1[:2:2], c2[:2:2]
	c00, c01 := c0[0], c0[1]
	c10, c11 := c1[0], c1[1]
	c20, c21 := c2[0], c2[1]
	for ; steps > 0; steps-- {
		x0, x1, x2 := a[ao], a[ao+o1], a[ao+o2]
		y := b[bo : bo+2 : bo+2]
		v := y[0]
		c00 += float64(x0 * v)
		c10 += float64(x1 * v)
		c20 += float64(x2 * v)
		v = y[1]
		c01 += float64(x0 * v)
		c11 += float64(x1 * v)
		c21 += float64(x2 * v)
		ao += m
		bo += n
	}
	c0[0], c0[1] = c00, c01
	c1[0], c1[1] = c10, c11
	c2[0], c2[1] = c20, c21
}

// gemmTransARange applies the gemmTransA window of rows [ilo, ihi) ×
// columns [jlo, jhi): dst[i,j] += Σp a[p,i]·b[p,j].
func gemmTransARange(dst, a, b []float64, k, m, n, ilo, ihi, jlo, jhi int) {
	for p0 := 0; p0 < k; p0 += transAChunk {
		steps := min(transAChunk, k-p0)
		for i := ilo; i < ihi; i += 3 {
			r0, r1, r2 := rowTriple(i, ihi)
			d0, d1, d2 := dst[r0*n:(r0+1)*n], dst[r1*n:(r1+1)*n], dst[r2*n:(r2+1)*n]
			ao := p0*m + r0
			j := jlo
			for ; j+2 <= jhi; j += 2 {
				transABlock(d0[j:], d1[j:], d2[j:], a, ao, r1-r0, r2-r0, m, b, p0*n+j, n, steps)
			}
			if j < jhi {
				d0[j], d1[j], d2[j] = dotTriple(d0[j], d1[j], d2[j], a, ao, ao+r1-r0, ao+r2-r0, m, b, p0*n+j, n, steps)
			}
		}
	}
}

// gemmTransA computes dst += aᵀ × b for a [k,m], b [k,n], dst [m,n],
// sharded over output columns so each worker applies the full ascending-p
// accumulation to its own column window. dst must be zero-filled for a
// plain product.
func gemmTransA(dst, a, b []float64, k, m, n int) {
	if w := parWorkers(k * m * n); w >= 2 {
		parallel.For(n, w, func(jlo, jhi int) { gemmTransARange(dst, a, b, k, m, n, 0, m, jlo, jhi) })
		return
	}
	gemmTransARange(dst, a, b, k, m, n, 0, m, 0, n)
}

// transBBlock overwrites c0[:2], c1[:2] and c2[:2] with the dot products
// of rows a0, a1 and a2 with rows b0 and b1.
func transBBlock(c0, c1, c2, a0, a1, a2, b0, b1 []float64) {
	k := len(a0)
	a1, a2, b0, b1 = a1[:k], a2[:k], b0[:k], b1[:k]
	var c00, c01, c10, c11, c20, c21 float64
	for p, x0 := range a0 {
		x1, x2 := a1[p], a2[p]
		v := b0[p]
		c00 += float64(x0 * v)
		c10 += float64(x1 * v)
		c20 += float64(x2 * v)
		v = b1[p]
		c01 += float64(x0 * v)
		c11 += float64(x1 * v)
		c21 += float64(x2 * v)
	}
	c0, c1, c2 = c0[:2:2], c1[:2:2], c2[:2:2]
	c0[0], c0[1] = c00, c01
	c1[0], c1[1] = c10, c11
	c2[0], c2[1] = c20, c21
}

// gemmTransBRange applies the gemmTransB row window [lo, hi): dst[i,j] =
// Σp a[i,p]·b[j,p], a dot product of two contiguous rows per element.
func gemmTransBRange(dst, a, b []float64, k, n, lo, hi int) {
	for i := lo; i < hi; i += 3 {
		r0, r1, r2 := rowTriple(i, hi)
		a0, a1, a2 := a[r0*k:(r0+1)*k], a[r1*k:(r1+1)*k], a[r2*k:(r2+1)*k]
		d0, d1, d2 := dst[r0*n:(r0+1)*n], dst[r1*n:(r1+1)*n], dst[r2*n:(r2+1)*n]
		j := 0
		for ; j+2 <= n; j += 2 {
			transBBlock(d0[j:], d1[j:], d2[j:], a0, a1, a2, b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k])
		}
		if j < n {
			d0[j], d1[j], d2[j] = dotTriple(0, 0, 0, a, r0*k, r1*k, r2*k, 1, b, j*k, 1, k)
		}
	}
}

// gemmTransB computes dst = a × bᵀ for a [m,k], b [n,k], dst [m,n],
// sharded over output rows. Every destination element is overwritten.
func gemmTransB(dst, a, b []float64, m, k, n int) {
	if w := parWorkers(m * k * n); w >= 2 {
		parallel.For(m, w, func(lo, hi int) { gemmTransBRange(dst, a, b, k, n, lo, hi) })
		return
	}
	gemmTransBRange(dst, a, b, k, n, 0, m)
}

// pointwise reports whether g is a 1×1 stride-1 unpadded window, whose
// im2col matrix is exactly the position-major rows of its input: im2col
// runs as nchwToRows and col2im as col2imPointwiseRange.
func (g ConvGeom) pointwise() bool {
	return g.KH == 1 && g.KW == 1 && g.StrideH == 1 && g.StrideW == 1 && g.PadH == 0 && g.PadW == 0
}

// im2colRange unrolls the image window [imgLo, imgHi), writing every
// element of its rows: positions in the padding get +0. It walks one
// kernel row of one channel across a whole output row at a time, reading
// from a copy of the input row with its zero padding attached, so no
// element needs a bounds test. The copy lives on the stack for rows up
// to 256 padded elements wide.
func im2colRange(dst, x []float64, c, h, w, oh, ow, colStride int, g ConvGeom, imgLo, imgHi int) {
	if g.pointwise() {
		nchwToRowsRange(dst, x, c, h, w, imgLo, imgHi)
		return
	}
	kw, sw := g.KW, g.StrideW
	var stack [256]float64
	padded := stack[:]
	if wp := w + 2*g.PadW; wp <= len(stack) {
		padded = padded[:wp]
	} else {
		padded = make([]float64, wp)
	}
	inner := padded[g.PadW : g.PadW+w]
	for img := imgLo; img < imgHi; img++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*g.StrideH - g.PadH
			band := dst[(img*oh+oy)*ow*colStride : (img*oh+oy+1)*ow*colStride]
			for ch := 0; ch < c; ch++ {
				for ky := 0; ky < g.KH; ky++ {
					col := (ch*g.KH + ky) * kw
					if iy := iy0 + ky; iy < 0 || iy >= h {
						clear(inner)
					} else {
						// A loop, not copy: rows are a few elements
						// wide, and a memmove call costs more than it moves.
						row := x[((img*c+ch)*h+iy)*w:]
						row = row[:len(inner)]
						for i, v := range row {
							inner[i] = v
						}
					}
					for ox := 0; ox < ow; ox++ {
						seg := band[ox*colStride+col : ox*colStride+col+kw]
						src := padded[ox*sw:]
						src = src[:len(seg)]
						for kx, v := range src {
							seg[kx] = v
						}
					}
				}
			}
		}
	}
}

// im2colKernel unrolls x [n,c,h,w] into receptive-field rows
// [n*oh*ow, c*KH*KW], sharded by image. Every destination element is
// overwritten.
func im2colKernel(dst, x []float64, n, c, h, w int, g ConvGeom) {
	oh, ow := g.OutSize(h, w)
	colStride := c * g.KH * g.KW
	if ww := parWorkers(n * oh * ow * colStride); ww >= 2 {
		parallel.For(n, ww, func(imgLo, imgHi int) {
			im2colRange(dst, x, c, h, w, oh, ow, colStride, g, imgLo, imgHi)
		})
		return
	}
	im2colRange(dst, x, c, h, w, oh, ow, colStride, g, 0, n)
}

// interiorCols returns the output columns [lo, hi) whose windows lie
// wholly inside an input row of width w; the columns outside it reach
// into the padding.
func (g ConvGeom) interiorCols(w, ow int) (lo, hi int) {
	lo = min((g.PadW+g.StrideW-1)/g.StrideW, ow)
	hi = lo
	if last := w + g.PadW - g.KW; last >= 0 {
		hi = max(min(last/g.StrideW+1, ow), lo)
	}
	return lo, hi
}

// kernelSpan returns the kernel columns [lo, hi) of a window starting at
// input column x0 that fall inside a row of width w; columns outside the
// span lie in the zero padding.
func kernelSpan(x0, w, kw int) (lo, hi int) {
	lo = min(max(-x0, 0), kw)
	hi = max(min(w-x0, kw), lo)
	return lo, hi
}

// col2imRange clears, then scatters into, the image window [imgLo,
// imgHi), walking the rows in im2colRange's order. Each element sums its
// contributions from +0 in ascending output position, the order of the
// position-major loop, whatever the destination held before. Unlike
// im2colRange it splits each row into edge and interior windows rather
// than padding a copy of the row: copying the accumulated row in and out
// measured slower than the edge tests it saves.
func col2imRange(dst, cols []float64, c, h, w, oh, ow, colStride int, g ConvGeom, imgLo, imgHi int) {
	if g.pointwise() {
		col2imPointwiseRange(dst, cols, c, h*w, imgLo, imgHi)
		return
	}
	kw, sw := g.KW, g.StrideW
	oxLo, oxHi := g.interiorCols(w, ow)
	for img := imgLo; img < imgHi; img++ {
		clear(dst[img*c*h*w : (img+1)*c*h*w])
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*g.StrideH - g.PadH
			band := cols[(img*oh+oy)*ow*colStride : (img*oh+oy+1)*ow*colStride]
			for ch := 0; ch < c; ch++ {
				for ky := 0; ky < g.KH; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= h {
						continue
					}
					col := (ch*g.KH + ky) * kw
					row := dst[((img*c+ch)*h+iy)*w : ((img*c+ch)*h+iy+1)*w]
					for ox := 0; ox < oxLo; ox++ {
						col2imEdge(row, band[ox*colStride+col:ox*colStride+col+kw], ox*sw-g.PadW)
					}
					for ox := oxLo; ox < oxHi; ox++ {
						seg := band[ox*colStride+col : ox*colStride+col+kw]
						out := row[ox*sw-g.PadW:]
						out = out[:len(seg)]
						for kx, v := range seg {
							out[kx] += v
						}
					}
					for ox := oxHi; ox < ow; ox++ {
						col2imEdge(row, band[ox*colStride+col:ox*colStride+col+kw], ox*sw-g.PadW)
					}
				}
			}
		}
	}
}

// col2imEdge adds seg, one kernel row of a window starting at column x0
// that reaches into the padding, into the output row, dropping the
// padded columns.
func col2imEdge(row, seg []float64, x0 int) {
	lo, hi := kernelSpan(x0, len(row), len(seg))
	for kx := lo; kx < hi; kx++ {
		row[x0+kx] += seg[kx]
	}
}

// col2imPointwiseRange is col2imRange for a pointwise geometry, where
// each destination element receives exactly one term: it transposes each
// image's [h·w, c] rows into its c planes, storing +0 + v, the sum a
// cleared destination would hold, so a −0 term still comes out +0.
func col2imPointwiseRange(dst, cols []float64, c, hw, imgLo, imgHi int) {
	for img := imgLo; img < imgHi; img++ {
		in := cols[img*hw*c : (img+1)*hw*c]
		for ch := 0; ch < c; ch++ {
			plane := dst[(img*c+ch)*hw : (img*c+ch+1)*hw]
			i := ch
			for p := range plane {
				plane[p] = 0 + in[i]
				i += c
			}
		}
	}
}

// col2imKernel scatters (accumulating on overlap) column rows back into
// an [n,c,h,w] destination, sharded by image. Every destination element
// is overwritten.
func col2imKernel(dst, cols []float64, n, c, h, w int, g ConvGeom) {
	oh, ow := g.OutSize(h, w)
	colStride := c * g.KH * g.KW
	if ww := parWorkers(n * oh * ow * colStride); ww >= 2 {
		parallel.For(n, ww, func(imgLo, imgHi int) {
			col2imRange(dst, cols, c, h, w, oh, ow, colStride, g, imgLo, imgHi)
		})
		return
	}
	col2imRange(dst, cols, c, h, w, oh, ow, colStride, g, 0, n)
}

// rowsToNCHWRange converts the image window [imgLo, imgHi): each
// image's [oh·ow, c] rows transpose into its c planes.
func rowsToNCHWRange(dst, rows []float64, c, oh, ow, imgLo, imgHi int) {
	hw := oh * ow
	for img := imgLo; img < imgHi; img++ {
		in := rows[img*hw*c : (img+1)*hw*c]
		for ch := 0; ch < c; ch++ {
			plane := dst[(img*c+ch)*hw : (img*c+ch+1)*hw]
			i := ch
			for p := range plane {
				plane[p] = in[i]
				i += c
			}
		}
	}
}

// rowsToNCHWKernel reinterprets position-major rows [n*oh*ow, c] as an
// [n,c,oh,ow] activation, sharded by image. Every destination element is
// overwritten.
func rowsToNCHWKernel(dst, rows []float64, n, c, oh, ow int) {
	if w := parWorkers(n * c * oh * ow); w >= 2 {
		parallel.For(n, w, func(imgLo, imgHi int) { rowsToNCHWRange(dst, rows, c, oh, ow, imgLo, imgHi) })
		return
	}
	rowsToNCHWRange(dst, rows, c, oh, ow, 0, n)
}

// nchwToRowsRange converts the image window [imgLo, imgHi): each
// image's c planes transpose into its [h·w, c] rows.
func nchwToRowsRange(dst, x []float64, c, h, w, imgLo, imgHi int) {
	hw := h * w
	for img := imgLo; img < imgHi; img++ {
		out := dst[img*hw*c : (img+1)*hw*c]
		for ch := 0; ch < c; ch++ {
			o := ch
			for _, v := range x[(img*c+ch)*hw : (img*c+ch+1)*hw] {
				out[o] = v
				o += c
			}
		}
	}
}

// nchwToRowsKernel converts [n,c,h,w] to position-major rows [n*h*w, c];
// the inverse of rowsToNCHWKernel. Every destination element is
// overwritten.
func nchwToRowsKernel(dst, x []float64, n, c, h, w int) {
	if ww := parWorkers(n * c * h * w); ww >= 2 {
		parallel.For(n, ww, func(imgLo, imgHi int) { nchwToRowsRange(dst, x, c, h, w, imgLo, imgHi) })
		return
	}
	nchwToRowsRange(dst, x, c, h, w, 0, n)
}

// addRowVector adds the [cols] vector v to every row of the [rows, cols]
// matrix m in place.
func addRowVector(m, v []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := m[r*cols : (r+1)*cols]
		for c := range row {
			row[c] += v[c]
		}
	}
}

// sumRows accumulates the column sums of the [rows, cols] matrix m into
// dst, which must be zero-filled for a plain sum.
func sumRows(dst, m []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := m[r*cols : (r+1)*cols]
		for c, v := range row {
			dst[c] += v
		}
	}
}
