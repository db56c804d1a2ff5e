package nn

import (
	"tdfm/internal/tensor"
)

// Residual implements a ResNet-style skip connection:
//
//	y = ReLU(main(x) + shortcut(x))
//
// where shortcut is the identity when nil (shapes must then match) or a
// projection (typically a strided 1×1 convolution) when the main path
// changes channel count or spatial size. The trailing ReLU follows the
// original ResNet formulation.
type Residual struct {
	arenaHolder
	main     Layer
	shortcut Layer // nil means identity

	relu *ReLU
}

var _ Layer = (*Residual)(nil)

// NewResidual returns a residual block with the given main path and optional
// projection shortcut (pass nil for identity).
func NewResidual(main Layer, shortcut Layer) *Residual {
	return &Residual{main: main, shortcut: shortcut, relu: NewReLU()}
}

// setArena installs the arena on the block itself and on its trailing ReLU,
// which Walk does not reach (it only recurses into main and shortcut).
func (r *Residual) setArena(a *tensor.Arena) {
	r.arenaHolder.setArena(a)
	r.relu.setArena(a)
}

// Forward computes ReLU(main(x) + shortcut(x)).
func (r *Residual) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	m := r.main.Forward(x, training)
	s := x
	if r.shortcut != nil {
		s = r.shortcut.Forward(x, training)
	}
	sum := r.allocWriteOnceLike(m)
	copy(sum.Data(), m.Data())
	sum.AddIn(s)
	return r.relu.Forward(sum, training)
}

// Backward propagates through the ReLU, then through both branches, summing
// their input gradients.
func (r *Residual) Backward(dout *tensor.Tensor) *tensor.Tensor {
	d := r.relu.Backward(dout)
	dx := r.main.Backward(d)
	if r.shortcut != nil {
		dx.AddIn(r.shortcut.Backward(d))
	} else {
		dx.AddIn(d)
	}
	return dx
}

// Params returns the parameters of both branches.
func (r *Residual) Params() []*Param {
	ps := r.main.Params()
	if r.shortcut != nil {
		ps = append(ps, r.shortcut.Params()...)
	}
	return ps
}
