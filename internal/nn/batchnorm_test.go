package nn

import (
	"math"
	"testing"

	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// bnBackwardRef is BatchNorm2D.Backward's input gradient as first
// written, with both divisions inside the inner loop. Backward hoists
// sumDy/cnt out of it and must still match bit for bit.
func bnBackwardRef(b *BatchNorm2D, dout *tensor.Tensor) []float64 {
	plane := b.h * b.w
	cnt := float64(b.n * plane)
	dx := make([]float64, b.n*b.ch*plane)
	dod, xh, gd := dout.Data(), b.xhat.Data(), b.gamma.W.Data()
	for ch := 0; ch < b.ch; ch++ {
		sumDy, sumDyXhat := 0.0, 0.0
		for img := 0; img < b.n; img++ {
			base := (img*b.ch + ch) * plane
			for i := 0; i < plane; i++ {
				dy := dod[base+i]
				sumDy += dy
				sumDyXhat += float64(dy * xh[base+i])
			}
		}
		k := gd[ch] * b.invStd[ch]
		for img := 0; img < b.n; img++ {
			base := (img*b.ch + ch) * plane
			for i := 0; i < plane; i++ {
				dy := dod[base+i]
				dx[base+i] = k * (dy - sumDy/cnt - xh[base+i]*sumDyXhat/cnt)
			}
		}
	}
	return dx
}

// TestBatchNormBackwardMatchesReference pins the hoisted division in
// BatchNorm2D.Backward to the original loop, bit for bit, on inputs and
// gradients salted with ±0 and into a NaN-poisoned write-once
// destination (every element must be written).
func TestBatchNormBackwardMatchesReference(t *testing.T) {
	oldPool := tensor.PoolingEnabled()
	defer tensor.SetPooling(oldPool)
	tensor.SetPooling(true)
	tensor.SetPoisonWriteOnce(true)
	defer tensor.SetPoisonWriteOnce(false)
	rng := xrand.New(3)
	shapes := [][4]int{{1, 1, 1, 1}, {2, 3, 4, 4}, {5, 2, 3, 7}, {8, 4, 6, 6}}
	for _, s := range shapes {
		n, ch, h, w := s[0], s[1], s[2], s[3]
		bn := NewBatchNorm2D("bn", ch)
		bn.setArena(tensor.NewArena())
		for i, g := range []float64{1.5, -0.75, 0.25, 3} {
			if i < ch {
				bn.gamma.W.Data()[i] = g
			}
		}
		x, dout := tensor.New(n, ch, h, w), tensor.New(n, ch, h, w)
		for i := range x.Data() {
			x.Data()[i], dout.Data()[i] = signedZeroOr(rng, i), signedZeroOr(rng, i+1)
		}
		bn.Forward(x, true)
		want := bnBackwardRef(bn, dout)
		got := bn.Backward(dout).Data()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("shape %v dx[%d] = %v, reference %v", s, i, got[i], want[i])
			}
		}
	}
}

// signedZeroOr returns +0 or -0 for every third index and a normal draw
// otherwise.
func signedZeroOr(rng *xrand.RNG, i int) float64 {
	switch i % 6 {
	case 0:
		return 0
	case 3:
		return math.Copysign(0, -1)
	}
	return rng.Normal(0, 1)
}
