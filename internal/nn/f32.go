package nn

import (
	"fmt"
	"math"

	"tdfm/internal/tensor"
)

// f32Layer is the inference-only float32 counterpart of Layer: no training
// mode, no backward pass, and all activations drawn from the net's arena.
type f32Layer interface {
	forward(x *tensor.F32, a *tensor.Arena) *tensor.F32
}

// F32Net is a float32 inference twin of a trained float64 network: weights
// are converted once at construction and every forward pass runs entirely
// in float32, halving the activation and weight memory traffic. Training
// never uses F32Net — the float64 network remains the source of truth.
//
// Like Layer, an F32Net is not safe for concurrent use: one goroutine
// drives Forward at a time (each serving member owns its twin).
//
// Numerical contract: logits drift from the float64 network by ordinary
// single-precision rounding (relative error ~1e-6 per operation chain);
// DESIGN.md §10 documents the tolerance. Softmax over the returned float64
// logits is monotone, so the argmax — and therefore every ensemble vote —
// matches the float64 member whenever the logit margin exceeds the drift,
// which holds for all seven study architectures (see core's
// TestF32VotesMatchF64).
type F32Net struct {
	layers []f32Layer
	arena  *tensor.Arena
}

// NewF32Net converts a trained float64 network into its float32 inference
// twin. It returns an error for layer types without a float32 counterpart.
// Dropout layers convert to the identity (their inference behaviour).
func NewF32Net(l Layer) (*F32Net, error) {
	fl, err := convertF32(l)
	if err != nil {
		return nil, err
	}
	return &F32Net{layers: []f32Layer{fl}, arena: tensor.NewArena()}, nil
}

// Arena returns the twin's activation arena so owners that retire the
// network (a hot-swapped model version) can Release its pooled storage
// back to the global pool.
func (n *F32Net) Arena() *tensor.Arena { return n.arena }

// Forward runs float32 inference on a float64 input batch and returns the
// logits converted back to float64 (fresh storage, safe to retain). All
// intermediate activations are recycled before returning.
func (n *F32Net) Forward(x *tensor.Tensor) *tensor.Tensor {
	x32 := tensor.ConvertToF32(n.arena.F32(x.Shape()...), x)
	for _, l := range n.layers {
		x32 = l.forward(x32, n.arena)
	}
	out := x32.ToTensor()
	n.arena.Reset()
	return out
}

// convertF32 builds the float32 twin of one layer (recursively for
// containers).
func convertF32(l Layer) (f32Layer, error) {
	switch v := l.(type) {
	case *Sequential:
		seq := &f32Sequential{}
		for _, child := range v.layers {
			fc, err := convertF32(child)
			if err != nil {
				return nil, err
			}
			seq.layers = append(seq.layers, fc)
		}
		return seq, nil
	case *Residual:
		main, err := convertF32(v.main)
		if err != nil {
			return nil, err
		}
		r := &f32Residual{main: main}
		if v.shortcut != nil {
			if r.shortcut, err = convertF32(v.shortcut); err != nil {
				return nil, err
			}
		}
		return r, nil
	case *Dense:
		return &f32Dense{
			w:   tensor.F32FromTensor(v.w.W),
			b:   tensor.F32FromTensor(v.b.W),
			out: v.out,
		}, nil
	case *Conv2D:
		return &f32Conv{
			w:    tensor.F32FromTensor(v.w.W),
			b:    tensor.F32FromTensor(v.b.W),
			inC:  v.inC,
			outC: v.outC,
			geom: v.geom,
		}, nil
	case *DepthwiseConv2D:
		return &f32Depthwise{
			w:    toF32Slice(v.w.W.Data()),
			b:    toF32Slice(v.b.W.Data()),
			ch:   v.ch,
			geom: v.geom,
		}, nil
	case *BatchNorm2D:
		// Fold the affine transform with the running statistics once, in
		// float64: y = scale*x + shift with scale = gamma/sqrt(var+eps)
		// and shift = beta - mean*scale.
		f := &f32BatchNorm{
			scale: make([]float32, v.ch),
			shift: make([]float32, v.ch),
		}
		gd, bd := v.gamma.W.Data(), v.beta.W.Data()
		for ch := 0; ch < v.ch; ch++ {
			scale := gd[ch] / math.Sqrt(v.runningVar[ch]+v.eps)
			f.scale[ch] = float32(scale)
			f.shift[ch] = float32(bd[ch] - float64(v.runningMean[ch]*scale))
		}
		return f, nil
	case *ReLU:
		return f32ReLU{}, nil
	case *Dropout:
		return f32Identity{}, nil
	case *Flatten:
		return f32Flatten{}, nil
	case *MaxPool2D:
		return &f32MaxPool{geom: v.geom}, nil
	case *GlobalAvgPool2D:
		return f32GlobalAvgPool{}, nil
	default:
		return nil, fmt.Errorf("nn: NewF32Net: no float32 twin for layer type %T", l)
	}
}

// toF32Slice converts a float64 slice to a fresh float32 slice.
func toF32Slice(src []float64) []float32 {
	dst := make([]float32, len(src))
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

type f32Sequential struct {
	layers []f32Layer
}

func (s *f32Sequential) forward(x *tensor.F32, a *tensor.Arena) *tensor.F32 {
	for _, l := range s.layers {
		x = l.forward(x, a)
	}
	return x
}

type f32Dense struct {
	w, b *tensor.F32
	out  int
}

func (d *f32Dense) forward(x *tensor.F32, a *tensor.Arena) *tensor.F32 {
	y := x.MatMulInto(a.F32(x.Dim(0), d.out), d.w)
	y.AddRowVectorIn(d.b)
	return y
}

type f32Conv struct {
	w, b      *tensor.F32
	inC, outC int
	geom      tensor.ConvGeom
}

func (c *f32Conv) forward(x *tensor.F32, a *tensor.Arena) *tensor.F32 {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.geom.OutSize(h, w)
	cols := tensor.Im2ColF32Into(a.F32(n*oh*ow, c.inC*c.geom.KH*c.geom.KW), x, c.geom)
	rows := cols.MatMulInto(a.F32(n*oh*ow, c.outC), c.w)
	rows.AddRowVectorIn(c.b)
	return tensor.RowsToNCHWF32Into(a.F32(n, c.outC, oh, ow), rows)
}

type f32Depthwise struct {
	w, b []float32
	ch   int
	geom tensor.ConvGeom
}

func (d *f32Depthwise) forward(x *tensor.F32, a *tensor.Arena) *tensor.F32 {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := d.geom.OutSize(h, w)
	out := a.F32(n, d.ch, oh, ow)
	xd, od := x.Data(), out.Data()
	k := d.geom.KH
	for img := 0; img < n; img++ {
		for ch := 0; ch < d.ch; ch++ {
			inBase := (img*d.ch + ch) * h * w
			outBase := (img*d.ch + ch) * oh * ow
			kBase := ch * k * k
			for oy := 0; oy < oh; oy++ {
				iy0 := oy*d.geom.StrideH - d.geom.PadH
				for ox := 0; ox < ow; ox++ {
					ix0 := ox*d.geom.StrideW - d.geom.PadW
					s := d.b[ch]
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
							s += float32(xd[inBase+iy*w+ix] * d.w[kBase+ky*k+kx])
						}
					}
					od[outBase+oy*ow+ox] = s
				}
			}
		}
	}
	return out
}

type f32BatchNorm struct {
	scale, shift []float32
}

func (b *f32BatchNorm) forward(x *tensor.F32, a *tensor.Arena) *tensor.F32 {
	n, c := x.Dim(0), x.Dim(1)
	plane := x.Dim(2) * x.Dim(3)
	out := a.F32(x.Shape()...)
	xd, od := x.Data(), out.Data()
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * plane
			s, sh := b.scale[ch], b.shift[ch]
			for i := 0; i < plane; i++ {
				od[base+i] = float32(s*xd[base+i]) + sh
			}
		}
	}
	return out
}

type f32ReLU struct{}

func (f32ReLU) forward(x *tensor.F32, a *tensor.Arena) *tensor.F32 {
	out := a.F32(x.Shape()...)
	od := out.Data()
	copy(od, x.Data())
	for i, v := range od {
		if v < 0 {
			od[i] = 0
		}
	}
	return out
}

// f32Identity is the inference form of Dropout.
type f32Identity struct{}

func (f32Identity) forward(x *tensor.F32, _ *tensor.Arena) *tensor.F32 { return x }

type f32Flatten struct{}

func (f32Flatten) forward(x *tensor.F32, _ *tensor.Arena) *tensor.F32 {
	n := x.Dim(0)
	return x.Reshape(n, x.Size()/n)
}

type f32MaxPool struct {
	geom tensor.ConvGeom
}

func (m *f32MaxPool) forward(x *tensor.F32, a *tensor.Arena) *tensor.F32 {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := m.geom.OutSize(h, w)
	out := a.F32(n, c, oh, ow)
	xd, od := x.Data(), out.Data()
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			inBase := (img*c + ch) * h * w
			outBase := (img*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				iy0 := oy * m.geom.StrideH
				for ox := 0; ox < ow; ox++ {
					ix0 := ox * m.geom.StrideW
					best := float32(math.Inf(-1))
					for ky := 0; ky < m.geom.KH; ky++ {
						iy := iy0 + ky
						if iy >= h {
							break
						}
						for kx := 0; kx < m.geom.KW; kx++ {
							ix := ix0 + kx
							if ix >= w {
								break
							}
							if v := xd[inBase+iy*w+ix]; v > best {
								best = v
							}
						}
					}
					od[outBase+oy*ow+ox] = best
				}
			}
		}
	}
	return out
}

type f32GlobalAvgPool struct{}

func (f32GlobalAvgPool) forward(x *tensor.F32, a *tensor.Arena) *tensor.F32 {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := a.F32(n, c)
	xd, od := x.Data(), out.Data()
	area := float32(h * w)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * h * w
			var s float32
			for i := 0; i < h*w; i++ {
				s += xd[base+i]
			}
			od[img*c+ch] = s / area
		}
	}
	return out
}

type f32Residual struct {
	main     f32Layer
	shortcut f32Layer // nil means identity
}

func (r *f32Residual) forward(x *tensor.F32, a *tensor.Arena) *tensor.F32 {
	m := r.main.forward(x, a)
	s := x
	if r.shortcut != nil {
		s = r.shortcut.forward(x, a)
	}
	sum := a.F32(m.Shape()...)
	copy(sum.Data(), m.Data())
	sum.AddIn(s)
	sd := sum.Data()
	for i, v := range sd {
		if v < 0 {
			sd[i] = 0
		}
	}
	return sum
}
