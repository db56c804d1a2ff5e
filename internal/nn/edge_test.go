package nn

import (
	"math"
	"testing"

	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

func TestMaxPoolUnevenInput(t *testing.T) {
	// 5x5 input with a 2x2/2 pool truncates to 2x2 output (no padding).
	p := NewMaxPool2D(2, 2)
	x := tensor.New(1, 1, 5, 5)
	for i := range x.Data() {
		x.Data()[i] = float64(i)
	}
	y := p.Forward(x, false)
	if y.Dim(2) != 2 || y.Dim(3) != 2 {
		t.Fatalf("pool output %v", y.Shape())
	}
	// Top-left window covers values {0,1,5,6} → max 6.
	if y.At(0, 0, 0, 0) != 6 {
		t.Fatalf("pool value %v", y.At(0, 0, 0, 0))
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	x := tensor.FromSlice([]float64{
		1, 9,
		3, 4,
	}, 1, 1, 2, 2)
	p.Forward(x, true)
	dx := p.Backward(tensor.Full(5, 1, 1, 1, 1))
	// Only index 1 (value 9) receives gradient.
	want := []float64{0, 5, 0, 0}
	for i, v := range want {
		if dx.Data()[i] != v {
			t.Fatalf("dx = %v", dx.Data())
		}
	}
}

// TestMaxPoolNaNRule pins the window rule: the max is seeded with the
// window's first tap, a NaN tap wins (the first one, bits kept), ties go
// to the earliest tap, and an all-NaN or all −Inf window still routes its
// gradient to a tap of its own.
func TestMaxPoolNaNRule(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negNaN := math.Float64frombits(math.Float64bits(nan) | 1<<63)
	cases := []struct {
		name   string
		window [4]float64
		want   float64
		argmax int
	}{
		{"finite", [4]float64{1, 2, 4, 3}, 4, 2},
		{"tie keeps earliest", [4]float64{2, 1, 2, 2}, 2, 0},
		{"first NaN wins", [4]float64{1, negNaN, 5, nan}, negNaN, 1},
		{"NaN first", [4]float64{nan, 7, inf, 1}, nan, 0},
		{"all NaN", [4]float64{negNaN, nan, nan, nan}, negNaN, 0},
		{"all -Inf", [4]float64{-inf, -inf, -inf, -inf}, -inf, 0},
		{"-Inf then finite", [4]float64{-inf, -inf, -1, -inf}, -1, 2},
		{"+Inf", [4]float64{3, inf, inf, 0}, inf, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewMaxPool2D(2, 2)
			y := p.Forward(tensor.FromSlice(tc.window[:], 1, 1, 2, 2), true)
			if got := y.Data()[0]; math.Float64bits(got) != math.Float64bits(tc.want) {
				t.Fatalf("max = %v (%#x), want %v (%#x)", got, math.Float64bits(got), tc.want, math.Float64bits(tc.want))
			}
			dx := p.Backward(tensor.Full(1, 1, 1, 1, 1)).Data()
			for i, v := range dx {
				want := 0.0
				if i == tc.argmax {
					want = 1
				}
				if v != want {
					t.Fatalf("dx = %v, want the gradient at tap %d", dx, tc.argmax)
				}
			}
		})
	}
}

func TestConvDeterministicGivenSeed(t *testing.T) {
	a := NewConv2D("c", 2, 3, 3, 1, 1, xrand.New(5))
	b := NewConv2D("c", 2, 3, 3, 1, 1, xrand.New(5))
	x := tensor.New(1, 2, 4, 4)
	xrand.New(6).FillNormal(x.Data(), 0, 1)
	if !a.Forward(x, false).Equal(b.Forward(x, false), 0) {
		t.Fatal("same-seed convs differ")
	}
}

func TestBatchNormSingleSpatialElement(t *testing.T) {
	// 1x1 spatial planes with batch > 1 must still normalize over the batch.
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.New(8, 2, 1, 1)
	xrand.New(7).FillNormal(x.Data(), 3, 2)
	y := bn.Forward(x, true)
	if y.HasNaN() {
		t.Fatal("NaN in 1x1 batch norm")
	}
	// Output mean per channel ≈ 0.
	for ch := 0; ch < 2; ch++ {
		s := 0.0
		for img := 0; img < 8; img++ {
			s += y.At(img, ch, 0, 0)
		}
		if s/8 > 1e-9 || s/8 < -1e-9 {
			t.Fatalf("channel %d mean %v", ch, s/8)
		}
	}
}

func TestDropoutDeterministicGivenSeed(t *testing.T) {
	x := tensor.Full(1, 100)
	d1 := NewDropout(0.5, xrand.New(9))
	d2 := NewDropout(0.5, xrand.New(9))
	if !d1.Forward(x, true).Equal(d2.Forward(x, true), 0) {
		t.Fatal("same-seed dropout masks differ")
	}
}

func TestEmptySequentialIsIdentity(t *testing.T) {
	s := NewSequential()
	x := tensor.FromSlice([]float64{1, 2, 3}, 1, 3)
	if !s.Forward(x, true).Equal(x, 0) {
		t.Fatal("empty Sequential changed input")
	}
	g := tensor.FromSlice([]float64{4, 5, 6}, 1, 3)
	if !s.Backward(g).Equal(g, 0) {
		t.Fatal("empty Sequential changed gradient")
	}
	if s.Params() != nil {
		t.Fatal("empty Sequential has params")
	}
}

func TestResidualIdentityShapePreserved(t *testing.T) {
	rng := xrand.New(11)
	res := NewResidual(NewSequential(
		NewConv2D("c", 2, 2, 3, 1, 1, rng),
	), nil)
	x := tensor.New(2, 2, 5, 5)
	y := res.Forward(x, false)
	if !y.SameShape(x) {
		t.Fatalf("residual changed shape: %v", y.Shape())
	}
}

func TestGradAccumulationAcrossBackwards(t *testing.T) {
	// Two backward passes without ZeroGrads must accumulate (sum) into Grad.
	rng := xrand.New(13)
	d := NewDense("fc", 3, 2, rng)
	x := tensor.New(2, 3)
	rng.FillNormal(x.Data(), 0, 1)
	g := tensor.Full(1, 2, 2)

	d.Forward(x, true)
	d.Backward(g)
	once := d.Params()[0].Grad.Clone()

	d.Forward(x, true)
	d.Backward(g)
	twice := d.Params()[0].Grad

	if !twice.Equal(once.Scale(2), 1e-12) {
		t.Fatal("gradients do not accumulate additively")
	}
}

// TestConvZeroGradInfInput pins the IEEE rule both convolutions follow
// in Backward: an Inf input under a zero output gradient contributes
// 0·Inf = NaN to every filter tap that reads it, so no zero-gradient
// shortcut may skip the product. The 3×3 filter over a 4×4 input with
// padding 1 reads the Inf pixel with every tap.
func TestConvZeroGradInfInput(t *testing.T) {
	for name, l := range map[string]Layer{
		"conv":   NewConv2D("c", 1, 1, 3, 1, 1, xrand.New(1)),
		"dwconv": NewDepthwiseConv2D("dw", 1, 3, 1, 1, xrand.New(1)),
	} {
		x := tensor.New(1, 1, 4, 4)
		x.Data()[5] = math.Inf(1)
		l.Backward(tensor.NewLike(l.Forward(x, true)))
		for i, g := range l.Params()[0].Grad.Data() {
			if !math.IsNaN(g) {
				t.Errorf("%s: filter grad[%d] = %v under a zero output gradient over an Inf input, want NaN", name, i, g)
			}
		}
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	cases := map[string]Layer{
		"dense":   NewDense("d", 2, 2, xrand.New(1)),
		"conv":    NewConv2D("c", 1, 1, 3, 1, 1, xrand.New(1)),
		"dwconv":  NewDepthwiseConv2D("dw", 1, 3, 1, 1, xrand.New(1)),
		"maxpool": NewMaxPool2D(2, 2),
		"gap":     NewGlobalAvgPool2D(),
		"relu":    NewReLU(),
		"flatten": NewFlatten(),
		"bn":      NewBatchNorm2D("bn", 1),
	}
	for name, l := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Backward before Forward did not panic", name)
				}
			}()
			l.Backward(tensor.New(1, 1))
		}()
	}
}

func TestParamCountKnownNetwork(t *testing.T) {
	rng := xrand.New(15)
	net := NewSequential(
		NewConv2D("c", 1, 2, 3, 1, 1, rng), // 1*3*3*2 + 2 = 20
		NewFlatten(),
		NewDense("d", 2*4*4, 3, rng), // 32*3 + 3 = 99
	)
	if got := ParamCount(net); got != 119 {
		t.Fatalf("ParamCount = %d, want 119", got)
	}
}
