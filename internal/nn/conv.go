package nn

import (
	"fmt"
	"math"

	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// Conv2D is a standard 2-D convolution over [N, C, H, W] inputs, implemented
// as im2col followed by a matrix product. Weights have shape
// [C*KH*KW, OutC]; bias has shape [OutC].
type Conv2D struct {
	arenaHolder
	w, b *Param

	inC, outC int
	geom      tensor.ConvGeom

	// Backward caches.
	cols      *tensor.Tensor
	n, h, wIn int
	oh, ow    int
}

var (
	_ Layer           = (*Conv2D)(nil)
	_ ParamBackwarder = (*Conv2D)(nil)
)

// NewConv2D returns a convolution layer with He-normal initialization.
// Kernel k is square; pad chooses symmetric zero padding (use
// tensor.SamePad(k) to preserve spatial size at stride 1).
func NewConv2D(name string, inC, outC, k, stride, pad int, rng *xrand.RNG) *Conv2D {
	if inC <= 0 || outC <= 0 {
		panic(fmt.Sprintf("nn: NewConv2D(%d, %d) invalid channels", inC, outC))
	}
	c := &Conv2D{
		w:    newParam(name+".w", inC*k*k, outC),
		b:    newParam(name+".b", outC),
		inC:  inC,
		outC: outC,
		geom: tensor.ConvGeom{KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad},
	}
	fanIn := float64(inC * k * k)
	rng.FillNormal(c.w.W.Data(), 0, math.Sqrt(2.0/fanIn))
	return c
}

// OutChannels returns the number of output channels.
func (c *Conv2D) OutChannels() int { return c.outC }

// Forward computes the convolution.
func (c *Conv2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != c.inC {
		panic(fmt.Sprintf("nn: Conv2D %s expects [N,%d,H,W], got %v", c.w.Name, c.inC, x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.geom.OutSize(h, w)
	cols := tensor.Im2ColInto(c.allocWriteOnce(n*oh*ow, c.inC*c.geom.KH*c.geom.KW), x, c.geom)
	rows := cols.MatMulInto(c.alloc(n*oh*ow, c.outC), c.w.W)
	rows.AddRowVectorIn(c.b.W)
	if training {
		c.cols, c.n, c.h, c.wIn, c.oh, c.ow = cols, n, h, w, oh, ow
	}
	return tensor.RowsToNCHWInto(c.allocWriteOnce(n, c.outC, oh, ow), rows)
}

// Backward accumulates weight/bias gradients and returns the input gradient.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	doutRows := c.backwardParams(dout)
	k := c.inC * c.geom.KH * c.geom.KW
	dcols := doutRows.MatMulTransBInto(c.allocWriteOnce(c.n*c.oh*c.ow, k), c.w.W, c.allocWriteOnce(c.outC, k))
	return tensor.Col2ImInto(c.allocWriteOnce(c.n, c.inC, c.h, c.wIn), dcols, c.geom)
}

// BackwardParams accumulates the weight/bias gradients of Backward and
// skips the input gradient (its GEMM and col2im).
func (c *Conv2D) BackwardParams(dout *tensor.Tensor) { c.backwardParams(dout) }

// backwardParams accumulates the weight/bias gradients and returns dout
// as rows ([N*OH*OW, outC]) for the input gradient.
func (c *Conv2D) backwardParams(dout *tensor.Tensor) *tensor.Tensor {
	if c.cols == nil {
		panic("nn: Conv2D Backward before training Forward")
	}
	doutRows := tensor.NCHWToRowsInto(c.allocWriteOnce(c.n*c.oh*c.ow, c.outC), dout)
	c.w.Grad.AddIn(c.cols.MatMulTransAInto(c.alloc(c.inC*c.geom.KH*c.geom.KW, c.outC), doutRows))
	c.b.Grad.AddIn(doutRows.SumRowsInto(c.alloc(c.outC)))
	return doutRows
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// DepthwiseConv2D applies one k×k filter per input channel (channel
// multiplier 1), the spatial half of a depthwise-separable convolution as
// used by MobileNet. Weights have shape [C, KH, KW]; bias has shape [C].
type DepthwiseConv2D struct {
	arenaHolder
	w, b *Param

	ch   int
	geom tensor.ConvGeom

	x      *tensor.Tensor
	oh, ow int
}

var _ Layer = (*DepthwiseConv2D)(nil)

// NewDepthwiseConv2D returns a depthwise convolution with He-normal
// initialization.
func NewDepthwiseConv2D(name string, ch, k, stride, pad int, rng *xrand.RNG) *DepthwiseConv2D {
	if ch <= 0 {
		panic("nn: NewDepthwiseConv2D needs positive channels")
	}
	d := &DepthwiseConv2D{
		w:    newParam(name+".w", ch, k, k),
		b:    newParam(name+".b", ch),
		ch:   ch,
		geom: tensor.ConvGeom{KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad},
	}
	rng.FillNormal(d.w.W.Data(), 0, math.Sqrt(2.0/float64(k*k)))
	return d
}

// Forward computes the per-channel convolution with direct loops (channel
// counts in the scaled model zoo are small, so im2col would not pay off).
// The batch dimension shards across the worker budget: each image's
// output plane is written by exactly one worker, so results are
// bit-identical at any worker count and batch size.
func (d *DepthwiseConv2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != d.ch {
		panic(fmt.Sprintf("nn: DepthwiseConv2D %s expects [N,%d,H,W], got %v", d.w.Name, d.ch, x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := d.geom.OutSize(h, w)
	out := d.allocWriteOnce(n, d.ch, oh, ow)
	xd, od, wd, bd := x.Data(), out.Data(), d.w.W.Data(), d.b.W.Data()
	k := d.geom.KH
	tensor.Shard(n, n*d.ch*oh*ow*k*k, func(imgLo, imgHi int) {
		for img := imgLo; img < imgHi; img++ {
			d.forwardImage(img, h, w, oh, ow, xd, od, wd, bd)
		}
	})
	if training {
		d.x, d.oh, d.ow = x, oh, ow
	}
	return out
}

// forwardImage computes one image's depthwise convolution.
func (d *DepthwiseConv2D) forwardImage(img, h, w, oh, ow int, xd, od, wd, bd []float64) {
	k := d.geom.KH
	for ch := 0; ch < d.ch; ch++ {
		inBase := (img*d.ch + ch) * h * w
		outBase := (img*d.ch + ch) * oh * ow
		kBase := ch * k * k
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*d.geom.StrideH - d.geom.PadH
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*d.geom.StrideW - d.geom.PadW
				s := bd[ch]
				for ky := 0; ky < k; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= w {
							continue
						}
						s += float64(xd[inBase+iy*w+ix] * wd[kBase+ky*k+kx])
					}
				}
				od[outBase+oy*ow+ox] = s
			}
		}
	}
}

// Backward accumulates filter/bias gradients and returns the input gradient.
func (d *DepthwiseConv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if d.x == nil {
		panic("nn: DepthwiseConv2D Backward before training Forward")
	}
	n, h, w := d.x.Dim(0), d.x.Dim(2), d.x.Dim(3)
	oh, ow := d.oh, d.ow
	dx := d.alloc(n, d.ch, h, w)
	xd, dxd := d.x.Data(), dx.Data()
	dod, wd := dout.Data(), d.w.W.Data()
	gw, gb := d.w.Grad.Data(), d.b.Grad.Data()
	k := d.geom.KH
	for img := 0; img < n; img++ {
		for ch := 0; ch < d.ch; ch++ {
			inBase := (img*d.ch + ch) * h * w
			outBase := (img*d.ch + ch) * oh * ow
			kBase := ch * k * k
			for oy := 0; oy < oh; oy++ {
				iy0 := oy*d.geom.StrideH - d.geom.PadH
				for ox := 0; ox < ow; ox++ {
					g := dod[outBase+oy*ow+ox]
					if g == 0 {
						continue
					}
					gb[ch] += g
					ix0 := ox*d.geom.StrideW - d.geom.PadW
					for ky := 0; ky < k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							gw[kBase+ky*k+kx] += float64(g * xd[inBase+iy*w+ix])
							dxd[inBase+iy*w+ix] += float64(g * wd[kBase+ky*k+kx])
						}
					}
				}
			}
		}
	}
	return dx
}

// Params returns the filter and bias parameters.
func (d *DepthwiseConv2D) Params() []*Param { return []*Param{d.w, d.b} }
