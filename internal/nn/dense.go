package nn

import (
	"fmt"
	"math"

	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// Dense is a fully connected layer computing y = xW + b for inputs of shape
// [N, in] and outputs of shape [N, out].
type Dense struct {
	arenaHolder
	w, b *Param

	in, out int
	x       *tensor.Tensor // cached input for Backward
}

var (
	_ Layer           = (*Dense)(nil)
	_ ParamBackwarder = (*Dense)(nil)
)

// NewDense returns a dense layer with He-normal initialized weights and zero
// biases, drawing initialization randomness from rng.
func NewDense(name string, in, out int, rng *xrand.RNG) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: NewDense(%d, %d) invalid", in, out))
	}
	d := &Dense{
		w:   newParam(name+".w", in, out),
		b:   newParam(name+".b", out),
		in:  in,
		out: out,
	}
	std := math.Sqrt(2.0 / float64(in))
	rng.FillNormal(d.w.W.Data(), 0, std)
	return d
}

// InDim returns the input feature size.
func (d *Dense) InDim() int { return d.in }

// OutDim returns the output feature size.
func (d *Dense) OutDim() int { return d.out }

// Forward computes xW + b.
func (d *Dense) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(1) != d.in {
		panic(fmt.Sprintf("nn: Dense %s expects [N,%d], got %v", d.w.Name, d.in, x.Shape()))
	}
	if training {
		d.x = x
	}
	y := x.MatMulInto(d.alloc(x.Dim(0), d.out), d.w.W)
	y.AddRowVectorIn(d.b.W)
	return y
}

// Backward accumulates dW = xᵀ·dout and db = Σ dout rows, and returns
// dx = dout·Wᵀ.
func (d *Dense) Backward(dout *tensor.Tensor) *tensor.Tensor {
	d.BackwardParams(dout)
	return dout.MatMulTransBInto(d.allocWriteOnce(dout.Dim(0), d.in), d.w.W, d.allocWriteOnce(d.out, d.in))
}

// BackwardParams accumulates the weight/bias gradients of Backward and
// skips the input gradient (its GEMM).
func (d *Dense) BackwardParams(dout *tensor.Tensor) {
	if d.x == nil {
		panic("nn: Dense Backward before training Forward")
	}
	d.w.Grad.AddIn(d.x.MatMulTransAInto(d.alloc(d.in, d.out), dout))
	d.b.Grad.AddIn(dout.SumRowsInto(d.alloc(d.out)))
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }
