package nn

import (
	"fmt"
	"math"

	"tdfm/internal/tensor"
)

// BatchNorm2D normalizes each channel of an [N, C, H, W] activation over the
// batch and spatial dimensions, then applies a learnable affine transform
// (gamma, beta). Running statistics collected during training are used at
// inference, following the standard formulation.
type BatchNorm2D struct {
	arenaHolder
	gamma, beta *Param

	ch       int
	momentum float64
	eps      float64

	runningMean []float64
	runningVar  []float64

	// Backward caches.
	xhat    *tensor.Tensor
	invStd  []float64
	n, h, w int
}

var _ Layer = (*BatchNorm2D)(nil)

// NewBatchNorm2D returns a batch-normalization layer for ch channels with
// gamma initialized to 1 and beta to 0.
func NewBatchNorm2D(name string, ch int) *BatchNorm2D {
	if ch <= 0 {
		panic("nn: NewBatchNorm2D needs positive channels")
	}
	b := &BatchNorm2D{
		gamma:       newParam(name+".gamma", ch),
		beta:        newParam(name+".beta", ch),
		ch:          ch,
		momentum:    0.9,
		eps:         1e-5,
		runningMean: make([]float64, ch),
		runningVar:  make([]float64, ch),
	}
	b.gamma.W.Fill(1)
	for i := range b.runningVar {
		b.runningVar[i] = 1
	}
	return b
}

// Forward normalizes with batch statistics (training) or running statistics
// (inference).
func (b *BatchNorm2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != b.ch {
		panic(fmt.Sprintf("nn: BatchNorm2D %s expects [N,%d,H,W], got %v", b.gamma.Name, b.ch, x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	out := b.allocWriteOnce(n, b.ch, h, w)
	xd, od := x.Data(), out.Data()
	gd, bd := b.gamma.W.Data(), b.beta.W.Data()
	plane := h * w
	cnt := float64(n * plane)

	if !training {
		for ch := 0; ch < b.ch; ch++ {
			invStd := 1 / math.Sqrt(b.runningVar[ch]+b.eps)
			mean := b.runningMean[ch]
			g, bt := gd[ch], bd[ch]
			for img := 0; img < n; img++ {
				base := (img*b.ch + ch) * plane
				for i := 0; i < plane; i++ {
					od[base+i] = float64(g*(xd[base+i]-mean)*invStd) + bt
				}
			}
		}
		return out
	}

	xhat := b.allocWriteOnce(n, b.ch, h, w)
	xh := xhat.Data()
	invStds := b.allocBuf(b.ch)
	for ch := 0; ch < b.ch; ch++ {
		sum := 0.0
		for img := 0; img < n; img++ {
			base := (img*b.ch + ch) * plane
			for i := 0; i < plane; i++ {
				sum += xd[base+i]
			}
		}
		mean := sum / cnt
		vs := 0.0
		for img := 0; img < n; img++ {
			base := (img*b.ch + ch) * plane
			for i := 0; i < plane; i++ {
				d := xd[base+i] - mean
				vs += float64(d * d)
			}
		}
		variance := vs / cnt
		invStd := 1 / math.Sqrt(variance+b.eps)
		invStds[ch] = invStd
		g, bt := gd[ch], bd[ch]
		for img := 0; img < n; img++ {
			base := (img*b.ch + ch) * plane
			for i := 0; i < plane; i++ {
				xn := (xd[base+i] - mean) * invStd
				xh[base+i] = xn
				od[base+i] = float64(g*xn) + bt
			}
		}
		b.runningMean[ch] = float64(b.momentum*b.runningMean[ch]) + float64((1-b.momentum)*mean)
		b.runningVar[ch] = float64(b.momentum*b.runningVar[ch]) + float64((1-b.momentum)*variance)
	}
	b.xhat, b.invStd, b.n, b.h, b.w = xhat, invStds, n, h, w
	return out
}

// Backward implements the standard batch-norm gradient.
func (b *BatchNorm2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if b.xhat == nil {
		panic("nn: BatchNorm2D Backward before training Forward")
	}
	n, h, w := b.n, b.h, b.w
	plane := h * w
	cnt := float64(n * plane)
	dx := b.allocWriteOnce(n, b.ch, h, w)
	dxd, dod, xh := dx.Data(), dout.Data(), b.xhat.Data()
	gg, gb := b.gamma.Grad.Data(), b.beta.Grad.Data()
	gd := b.gamma.W.Data()
	for ch := 0; ch < b.ch; ch++ {
		sumDy, sumDyXhat := 0.0, 0.0
		for img := 0; img < n; img++ {
			base := (img*b.ch + ch) * plane
			for i := 0; i < plane; i++ {
				dy := dod[base+i]
				sumDy += dy
				sumDyXhat += float64(dy * xh[base+i])
			}
		}
		gg[ch] += sumDyXhat
		gb[ch] += sumDy
		// meanDy hoists one division out of the loop. The other stays as
		// (xh·S)/cnt: xh·(S/cnt) rounds differently.
		k, meanDy := gd[ch]*b.invStd[ch], sumDy/cnt
		for img := 0; img < n; img++ {
			base := (img*b.ch + ch) * plane
			for i := 0; i < plane; i++ {
				dxd[base+i] = k * (dod[base+i] - meanDy - xh[base+i]*sumDyXhat/cnt)
			}
		}
	}
	return dx
}

// Params returns gamma and beta.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.gamma, b.beta} }

// RunningStats returns copies of the running mean and variance, used by
// serialization.
func (b *BatchNorm2D) RunningStats() (mean, variance []float64) {
	return append([]float64(nil), b.runningMean...), append([]float64(nil), b.runningVar...)
}

// SetRunningStats installs running statistics (used when loading weights).
func (b *BatchNorm2D) SetRunningStats(mean, variance []float64) error {
	if len(mean) != b.ch || len(variance) != b.ch {
		return fmt.Errorf("nn: SetRunningStats wants %d channels, got %d/%d", b.ch, len(mean), len(variance))
	}
	copy(b.runningMean, mean)
	copy(b.runningVar, variance)
	return nil
}
