package nn

import (
	"fmt"

	"tdfm/internal/tensor"
)

// MaxPool2D is a max-pooling layer over [N, C, H, W] inputs.
type MaxPool2D struct {
	arenaHolder
	geom tensor.ConvGeom

	argmax             []int // flat input index of each output element
	inLen              int
	inN, inC, inH, inW int
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D returns a max-pool layer with a square window of size k and
// the given stride (no padding).
func NewMaxPool2D(k, stride int) *MaxPool2D {
	return &MaxPool2D{geom: tensor.ConvGeom{KH: k, KW: k, StrideH: stride, StrideW: stride}}
}

// Forward computes per-window maxima, recording argmax positions for
// Backward when training.
func (m *MaxPool2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D expects [N,C,H,W], got %v", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := m.geom.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2D window %dx%d too large for %dx%d input", m.geom.KH, m.geom.KW, h, w))
	}
	out := m.allocWriteOnce(n, c, oh, ow)
	var arg []int
	if training {
		// Reuse the previous batch's argmax storage when it fits: every
		// element is overwritten below, so stale contents cannot leak.
		if cap(m.argmax) >= out.Size() {
			arg = m.argmax[:out.Size()]
		} else {
			arg = make([]int, out.Size())
		}
	}
	xd, od := x.Data(), out.Data()
	// Batch-first sharding: each image's output (and argmax) block is
	// written by exactly one worker, so any worker count and batch size
	// reproduce the serial result bit for bit.
	tensor.Shard(n, n*c*oh*ow*m.geom.KH*m.geom.KW, func(imgLo, imgHi int) {
		for img := imgLo; img < imgHi; img++ {
			for ch := 0; ch < c; ch++ {
				inBase := (img*c + ch) * h * w
				outBase := (img*c + ch) * oh * ow
				for oy := 0; oy < oh; oy++ {
					iy0 := oy * m.geom.StrideH
					for ox := 0; ox < ow; ox++ {
						ix0 := ox * m.geom.StrideW
						// Seeded with the window's first tap (windows lie
						// inside the input), a later tap wins if larger or
						// the first NaN, as NaN propagates in ReLU and GEMM.
						bestIdx := inBase + iy0*w + ix0
						best := xd[bestIdx]
						for ky := 0; ky < m.geom.KH; ky++ {
							row := inBase + (iy0+ky)*w + ix0
							for idx := row; idx < row+m.geom.KW; idx++ {
								if v := xd[idx]; v > best || (v != v && best == best) {
									best, bestIdx = v, idx
								}
							}
						}
						o := outBase + oy*ow + ox
						od[o] = best
						if training {
							arg[o] = bestIdx
						}
					}
				}
			}
		}
	})
	if training {
		m.argmax = arg
		m.inLen = x.Size()
		m.inN, m.inC, m.inH, m.inW = n, c, h, w
	}
	return out
}

// Backward routes each output gradient to the input position that won the
// max in Forward.
func (m *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if m.argmax == nil {
		panic("nn: MaxPool2D Backward before training Forward")
	}
	dx := m.alloc(m.inN, m.inC, m.inH, m.inW)
	dxd, dod := dx.Data(), dout.Data()
	for o, idx := range m.argmax {
		dxd[idx] += dod[o]
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (m *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool2D averages each channel's spatial plane, mapping
// [N, C, H, W] to [N, C]. Used by the ResNet and MobileNet heads.
type GlobalAvgPool2D struct {
	arenaHolder
	inN, inC, inH, inW int
}

var _ Layer = (*GlobalAvgPool2D)(nil)

// NewGlobalAvgPool2D returns a global average pooling layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

// Forward averages over the spatial dimensions.
func (g *GlobalAvgPool2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool2D expects [N,C,H,W], got %v", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := g.allocWriteOnce(n, c)
	xd, od := x.Data(), out.Data()
	area := float64(h * w)
	// Batch-first sharding with per-image output rows; bit-identical at
	// any worker count (the per-channel accumulation stays serial).
	tensor.Shard(n, n*c*h*w, func(imgLo, imgHi int) {
		for img := imgLo; img < imgHi; img++ {
			for ch := 0; ch < c; ch++ {
				base := (img*c + ch) * h * w
				s := 0.0
				for i := 0; i < h*w; i++ {
					s += xd[base+i]
				}
				od[img*c+ch] = s / area
			}
		}
	})
	if training {
		g.inN, g.inC, g.inH, g.inW = n, c, h, w
	}
	return out
}

// Backward spreads each channel gradient uniformly over its spatial plane.
func (g *GlobalAvgPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if g.inH == 0 {
		panic("nn: GlobalAvgPool2D Backward before training Forward")
	}
	dx := g.allocWriteOnce(g.inN, g.inC, g.inH, g.inW)
	dxd, dod := dx.Data(), dout.Data()
	area := float64(g.inH * g.inW)
	for img := 0; img < g.inN; img++ {
		for ch := 0; ch < g.inC; ch++ {
			v := dod[img*g.inC+ch] / area
			base := (img*g.inC + ch) * g.inH * g.inW
			for i := 0; i < g.inH*g.inW; i++ {
				dxd[base+i] = v
			}
		}
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (g *GlobalAvgPool2D) Params() []*Param { return nil }
