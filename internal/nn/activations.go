package nn

import (
	"fmt"
	"math"
	"math/bits"

	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// ReLU is the rectified-linear activation, applied elementwise.
type ReLU struct {
	arenaHolder
	// out caches the training-mode output: out[i] > 0 exactly where the
	// input was positive, so it doubles as the backward mask without a
	// separate allocation.
	out *tensor.Tensor
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward keeps x where it is positive or NaN and writes +0 elsewhere
// (−0, −Inf and every negative value included). Forward and Backward
// select with bit masks rather than branches: activations change sign at
// random, so a compare-and-branch per element mispredicts about half the
// time.
func (r *ReLU) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	out := r.allocWriteOnceLike(x)
	od, xd := out.Data(), x.Data()
	xd = xd[:len(od)]
	for i, v := range xd {
		u := math.Float64bits(v)
		od[i] = math.Float64frombits(u & (positiveMask(u) | nanMask(u)))
	}
	if training {
		r.out = out
	}
	return out
}

// Backward passes dout where the forward output is positive and writes
// +0 elsewhere, NaN outputs included.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if r.out == nil {
		panic("nn: ReLU Backward before training Forward")
	}
	dx := r.allocWriteOnceLike(dout)
	dxd, dod, od := dx.Data(), dout.Data(), r.out.Data()
	dod, od = dod[:len(dxd)], od[:len(dxd)]
	for i, g := range dod {
		dxd[i] = math.Float64frombits(math.Float64bits(g) & positiveMask(math.Float64bits(od[i])))
	}
	return dx
}

// infBits is the bit pattern of +Inf; exactly the NaNs have larger
// magnitude bits.
const infBits = 0x7ff0_0000_0000_0000

// positiveMask returns all ones if the float64 with bits u is greater
// than zero (+Inf included, NaN not), else zero: exactly those u lie in
// [1, infBits], so u-1 borrows when infBits is subtracted from it.
func positiveMask(u uint64) uint64 {
	_, borrow := bits.Sub64(u-1, infBits, 0)
	return -borrow
}

// nanMask returns all ones if the float64 with bits u is a NaN, else
// zero: infBits minus the magnitude bits goes negative exactly for NaNs.
func nanMask(u uint64) uint64 {
	return uint64(int64(infBits-u&^(1<<63)) >> 63)
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Dropout randomly zeroes activations during training with probability Rate
// and rescales survivors by 1/(1-Rate) ("inverted dropout"), so inference
// needs no adjustment.
type Dropout struct {
	arenaHolder
	rate float64
	rng  *xrand.RNG
	mask []float64
}

var _ Layer = (*Dropout)(nil)

// NewDropout returns a dropout layer with the given drop probability,
// drawing masks from rng. Rate must lie in [0, 1).
func NewDropout(rate float64, rng *xrand.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: NewDropout rate %v out of [0,1)", rate))
	}
	return &Dropout{rate: rate, rng: rng}
}

// Forward applies a fresh mask when training; it is the identity otherwise.
func (d *Dropout) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if !training || d.rate == 0 {
		d.mask = nil
		return x
	}
	out := d.allocWriteOnceLike(x)
	od := out.Data()
	copy(od, x.Data())
	mask := d.allocBuf(len(od))
	keep := 1 - d.rate
	scale := 1 / keep
	for i := range od {
		if d.rng.Float64() < keep {
			mask[i] = scale
			od[i] *= scale
		} else {
			od[i] = 0
		}
	}
	d.mask = mask
	return out
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		// Dropout was an identity in Forward (rate 0); pass through.
		return dout
	}
	dx := d.allocWriteOnceLike(dout)
	dxd, dod := dx.Data(), dout.Data()
	for i := range dxd {
		dxd[i] = dod[i] * d.mask[i]
	}
	return dx
}

// Params returns nil; dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// Flatten reshapes [N, C, H, W] activations to [N, C*H*W] for the dense
// head of a convolutional network.
type Flatten struct {
	inShape []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if training {
		f.inShape = x.Shape()
	}
	n := x.Dim(0)
	return x.Reshape(n, -1)
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if f.inShape == nil {
		panic("nn: Flatten Backward before training Forward")
	}
	return dout.Reshape(f.inShape...)
}

// Params returns nil; flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }
