// Package nn implements the neural-network substrate for the TDFM study: a
// layer abstraction with explicit forward/backward passes, the layer types
// required by the paper's seven architectures (dense, convolution,
// depthwise convolution, batch normalization, pooling, dropout, residual
// blocks), parameter management, and weight serialization.
//
// Layers cache activations between Forward and Backward, so a layer (and any
// network built from layers) is NOT safe for concurrent use: one goroutine
// drives a given model's train/predict loop at a time. Parallelism happens
// at two other levels, both coordinated through the shared worker budget in
// internal/parallel: across independent models (experiment grid cells and
// ensemble members train concurrently), and inside individual tensor
// operations (matrix products and im2col transforms shard rows across
// workers; see tensor.SetParallelism). Both levels are result-invariant —
// any worker count produces bit-identical numbers — so the layer contract
// callers rely on is unchanged: same inputs, same weights, same outputs.
package nn

import (
	"fmt"

	"tdfm/internal/tensor"
)

// Param is a trainable parameter tensor with its accumulated gradient.
// Optimizers mutate W in place and zero Grad between steps.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// arenaHolder embeds a tensor.Arena into a layer. Every activation and
// scratch tensor the layer allocates comes from the arena installed by
// InstallArena and is recycled wholesale by the owner's Arena.Reset at
// batch/chunk boundaries, and layer by layer within an inference forward
// (see Sequential.Forward). Until an arena is installed the field is the
// nil arena, whose handouts are plain allocations: the historical
// allocate-per-call path. The modes are byte-identical: alloc is
// zero-filled either way, and allocWriteOnce is used only for
// destinations whose every element is written before any is read.
//
// The alloc helpers keep arena handouts behind a callee: a layer stores
// them in its fields for Backward, which the poolown lint would flag as
// escapes at a direct Arena call.
type arenaHolder struct {
	arena *tensor.Arena
}

// setArena installs the layer's arena (nil for allocate-per-call).
func (h *arenaHolder) setArena(a *tensor.Arena) { h.arena = a }

// alloc returns a zero-filled tensor from the layer's arena.
func (h *arenaHolder) alloc(shape ...int) *tensor.Tensor { return h.arena.Tensor(shape...) }

// allocLike is alloc with x's shape, avoiding the shape copy that an
// x.Shape() spread would allocate on every call.
func (h *arenaHolder) allocLike(x *tensor.Tensor) *tensor.Tensor { return h.arena.TensorLike(x) }

// allocWriteOnce is alloc without the zero fill: a reused handout keeps
// stale contents (see tensor.Arena.WriteOnce), so the caller must write
// every element before reading any.
func (h *arenaHolder) allocWriteOnce(shape ...int) *tensor.Tensor {
	return h.arena.WriteOnce(shape...)
}

// allocWriteOnceLike is allocWriteOnce with x's shape, without the shape
// copy an x.Shape() spread would allocate.
func (h *arenaHolder) allocWriteOnceLike(x *tensor.Tensor) *tensor.Tensor {
	return h.arena.WriteOnceLike(x)
}

// allocBuf returns a zero-filled []float64 from the layer's arena.
func (h *arenaHolder) allocBuf(n int) []float64 { return h.arena.Buf(n) }

// arenaUser is implemented (via arenaHolder embedding) by every layer that
// allocates activations or scratch.
type arenaUser interface {
	setArena(*tensor.Arena)
}

// InstallArena walks the network and installs a on every layer that
// allocates, so all activations and scratch of one model share one
// allocation scope. Callers own the reset cadence: the training loop
// resets after each optimizer step, the inference path after each
// predicted chunk (DESIGN.md §10). Pass nil to make the network allocate
// per call. Installing an arena does not change any numeric result — arena
// buffers are zero-filled exactly like fresh ones, except write-once
// handouts, whose every element the layer overwrites.
func InstallArena(l Layer, a *tensor.Arena) {
	Walk(l, func(layer Layer) {
		if u, ok := layer.(arenaUser); ok {
			u.setArena(a)
		}
	})
}

// Layer is a differentiable network stage.
//
// Forward consumes a batch and returns the layer output; when training is
// true, layers cache whatever they need for Backward and apply
// training-only behaviour (dropout masks, batch statistics). Backward
// consumes the gradient of the loss with respect to the layer output,
// accumulates parameter gradients, and returns the gradient with respect to
// the layer input.
type Layer interface {
	Forward(x *tensor.Tensor, training bool) *tensor.Tensor
	Backward(dout *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Sequential chains layers in order. The zero value is an empty network.
type Sequential struct {
	arenaHolder
	layers []Layer
}

var _ Layer = (*Sequential)(nil)

// NewSequential returns a network composed of the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{layers: append([]Layer(nil), layers...)}
}

// Add appends layers to the network.
func (s *Sequential) Add(layers ...Layer) { s.layers = append(s.layers, layers...) }

// Len returns the number of layers.
func (s *Sequential) Len() int { return len(s.layers) }

// Layers returns the underlying layer slice (not a copy; treat as read-only).
func (s *Sequential) Layers() []Layer { return s.layers }

// Arena returns the allocation arena installed on this network by
// InstallArena; nil, the allocate-per-call arena, when none is. The
// training loop and chunked inference use it to recycle activations at
// safe points.
func (s *Sequential) Arena() *tensor.Arena { return s.arena }

// Forward runs the layers in order. An inference forward (training
// false) returns each layer's dead activations and scratch to the arena
// as soon as the next layer's output exists, so the arena holds the
// pass's live set instead of the sum of its activations. Only storage handed out during this call is recycled:
// the caller's input predates the mark, and a nested Sequential (a
// residual branch) leaves its output for this one to recycle. A training
// forward keeps every activation for Backward.
func (s *Sequential) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if training {
		for _, l := range s.layers {
			x = l.Forward(x, training)
		}
		return x
	}
	m := s.arena.Mark()
	for _, l := range s.layers {
		x = l.Forward(x, training)
		s.arena.RecycleSince(m, x)
	}
	return x
}

// Backward runs the layers in reverse order.
func (s *Sequential) Backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(s.layers) - 1; i >= 0; i-- {
		dout = s.layers[i].Backward(dout)
	}
	return dout
}

// ParamBackwarder is implemented by layers that can accumulate their
// parameter gradients without computing the gradient with respect to
// their input — the part of Backward a network's first layer wastes,
// since no caller reads the gradient with respect to the data.
type ParamBackwarder interface {
	BackwardParams(dout *tensor.Tensor)
}

var _ ParamBackwarder = (*Sequential)(nil)

// BackwardParams is Backward for callers that discard the input gradient
// (the training loops): every parameter gradient accumulates exactly as
// in Backward, but the first layer skips its input gradient when it is a
// ParamBackwarder.
func (s *Sequential) BackwardParams(dout *tensor.Tensor) {
	if len(s.layers) == 0 {
		return
	}
	for i := len(s.layers) - 1; i > 0; i-- {
		dout = s.layers[i].Backward(dout)
	}
	if pb, ok := s.layers[0].(ParamBackwarder); ok {
		pb.BackwardParams(dout)
		return
	}
	s.layers[0].Backward(dout)
}

// Params returns all trainable parameters in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears every parameter gradient in the network.
func ZeroGrads(l Layer) {
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of scalar weights in the network.
func ParamCount(l Layer) int {
	n := 0
	for _, p := range l.Params() {
		n += p.W.Size()
	}
	return n
}

// CopyWeights copies parameter values from src to dst. The two networks must
// have identical parameter lists (same order, names, and shapes); this is
// used to clone teacher weights in self-distillation and to restore
// snapshots.
func CopyWeights(dst, src Layer) error {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		return fmt.Errorf("nn: CopyWeights parameter count mismatch %d vs %d", len(dp), len(sp))
	}
	for i := range dp {
		if !dp[i].W.SameShape(sp[i].W) {
			return fmt.Errorf("nn: CopyWeights shape mismatch at %q: %v vs %v",
				dp[i].Name, dp[i].W.Shape(), sp[i].W.Shape())
		}
		copy(dp[i].W.Data(), sp[i].W.Data())
	}
	return nil
}
