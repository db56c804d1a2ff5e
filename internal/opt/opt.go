// Package opt implements the gradient-descent optimizers and learning-rate
// schedules used to train models in the TDFM study.
package opt

import (
	"fmt"
	"math"

	"tdfm/internal/nn"
)

// Optimizer applies one update step to a set of parameters using their
// accumulated gradients, then the caller zeroes the gradients.
type Optimizer interface {
	Step(params []*nn.Param)
	// SetLR changes the current learning rate (used by schedules).
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
	// Release drops the optimizer's per-parameter state. Call it when
	// the training run that owns the optimizer finishes; the optimizer
	// remains usable (its next Step starts from fresh zero state, exactly
	// like a new optimizer).
	Release()
	Name() string
}

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay.
type SGD struct {
	lr          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*nn.Param][]float64
}

var _ Optimizer = (*SGD)(nil)

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	if lr <= 0 {
		panic(fmt.Sprintf("opt: NewSGD lr %v must be positive", lr))
	}
	return &SGD{lr: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[*nn.Param][]float64)}
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Step applies v ← m·v - lr·(g + wd·w); w ← w + v.
func (s *SGD) Step(params []*nn.Param) {
	for _, p := range params {
		w, g := p.W.Data(), p.Grad.Data()
		v, ok := s.velocity[p]
		if !ok {
			v = make([]float64, len(w))
			s.velocity[p] = v
		}
		for i := range w {
			grad := g[i] + float64(s.WeightDecay*w[i])
			v[i] = float64(s.Momentum*v[i]) - float64(s.lr*grad)
			w[i] += v[i]
		}
	}
}

// Release implements Optimizer: the velocity state is dropped.
func (s *SGD) Release() { clear(s.velocity) }

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	lr          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m map[*nn.Param][]float64
	v map[*nn.Param][]float64
}

var _ Optimizer = (*Adam)(nil)

// NewAdam returns an Adam optimizer with the standard β₁=0.9, β₂=0.999.
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		panic(fmt.Sprintf("opt: NewAdam lr %v must be positive", lr))
	}
	return &Adam{
		lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*nn.Param][]float64),
		v: make(map[*nn.Param][]float64),
	}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.lr }

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// Step applies the Adam update with bias correction.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		w, g := p.W.Data(), p.Grad.Data()
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(w))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, len(w))
			a.v[p] = v
		}
		for i := range w {
			grad := g[i] + float64(a.WeightDecay*w[i])
			m[i] = float64(a.Beta1*m[i]) + float64((1-a.Beta1)*grad)
			v[i] = float64(a.Beta2*v[i]) + float64((1-a.Beta2)*grad*grad)
			mhat := m[i] / c1
			vhat := v[i] / c2
			w[i] -= a.lr * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}

// Release implements Optimizer: the moment state is dropped and the
// bias-correction step counter resets.
func (a *Adam) Release() {
	clear(a.m)
	clear(a.v)
	a.t = 0
}

// GradNorm returns the global L2 norm of the accumulated gradients across
// all parameters — the trainer's divergence detector samples it each step
// to catch explosions before they reach NaN. It returns +Inf if any
// gradient entry is NaN or Inf (a NaN gradient has no meaningful norm but
// is certainly divergent).
func GradNorm(params []*nn.Param) float64 {
	sum := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data() {
			sum += float64(g * g)
		}
	}
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		return math.Inf(1)
	}
	return math.Sqrt(sum)
}

// ClipGradNorm rescales the accumulated gradients so their global L2 norm
// is at most maxNorm, returning the pre-clip norm. Gradients at or under
// the bound (or a non-positive maxNorm) are left untouched. A non-finite
// norm cannot be rescaled; the caller must restart instead (the trainer's
// divergence recovery does).
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	norm := GradNorm(params)
	if maxNorm <= 0 || norm <= maxNorm || math.IsInf(norm, 0) {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		g := p.Grad.Data()
		for i := range g {
			g[i] *= scale
		}
	}
	return norm
}

// Schedule maps an epoch index to a learning-rate multiplier.
type Schedule interface {
	// Factor returns the multiplier applied to the base learning rate at
	// the start of the given zero-based epoch.
	Factor(epoch int) float64
}

// ConstSchedule keeps the learning rate fixed.
type ConstSchedule struct{}

// Factor implements Schedule.
func (ConstSchedule) Factor(int) float64 { return 1 }

// StepDecay multiplies the learning rate by Gamma every Every epochs.
type StepDecay struct {
	Every int
	Gamma float64
}

// Factor implements Schedule.
func (s StepDecay) Factor(epoch int) float64 {
	if s.Every <= 0 {
		return 1
	}
	return math.Pow(s.Gamma, float64(epoch/s.Every))
}

// CosineDecay anneals the learning rate to zero over Total epochs following
// a half cosine.
type CosineDecay struct {
	Total int
}

// Factor implements Schedule.
func (c CosineDecay) Factor(epoch int) float64 {
	if c.Total <= 1 {
		return 1
	}
	if epoch >= c.Total {
		return 0
	}
	return 0.5 * (1 + math.Cos(math.Pi*float64(epoch)/float64(c.Total)))
}
