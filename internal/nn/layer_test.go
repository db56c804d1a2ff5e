package nn

import (
	"bytes"
	"math"
	"testing"

	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

func TestDenseShapes(t *testing.T) {
	rng := xrand.New(1)
	d := NewDense("fc", 4, 3, rng)
	y := d.Forward(tensor.New(5, 4), false)
	if y.Dim(0) != 5 || y.Dim(1) != 3 {
		t.Fatalf("Dense output shape %v", y.Shape())
	}
	if d.InDim() != 4 || d.OutDim() != 3 {
		t.Fatal("dims accessor wrong")
	}
}

func TestDenseBiasApplied(t *testing.T) {
	rng := xrand.New(2)
	d := NewDense("fc", 2, 2, rng)
	d.Params()[0].W.Zero() // weights = 0
	copy(d.Params()[1].W.Data(), []float64{3, -1})
	y := d.Forward(tensor.New(1, 2), false)
	if y.At(0, 0) != 3 || y.At(0, 1) != -1 {
		t.Fatalf("bias not applied: %v", y)
	}
}

func TestDenseWrongInputPanics(t *testing.T) {
	rng := xrand.New(3)
	d := NewDense("fc", 4, 3, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Forward(tensor.New(5, 7), false)
}

// TestArenaTrainingStepAllocatesNothing pins that a warmed Conv2D or
// Dense training step — Forward, Backward, then the arena's Reset — on
// an arena at parallelism 1 makes no heap allocation: activations,
// gradients and the transB packing scratch all come from the arena.
func TestArenaTrainingStepAllocatesNothing(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(1)
	rng := xrand.New(9)
	for _, c := range []struct {
		name  string
		layer Layer
		x     *tensor.Tensor
	}{
		{"conv", NewConv2D("conv", 3, 8, 3, 1, 1, rng), tensor.New(4, 3, 6, 6)},
		{"dense", NewDense("fc", 12, 5, rng), tensor.New(4, 12)},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng.FillNormal(c.x.Data(), 0, 1)
			arena := tensor.NewArena()
			InstallArena(c.layer, arena)
			dout := tensor.NewLike(c.layer.Forward(c.x, true))
			rng.FillNormal(dout.Data(), 0, 1)
			step := func() {
				c.layer.Forward(c.x, true)
				c.layer.Backward(dout)
				arena.Reset()
			}
			step()
			if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
				t.Fatalf("warmed training step allocates %v times", allocs)
			}
		})
	}
}

func TestReLUForward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float64{-1, 0, 2, -3}, 4)
	y := r.Forward(x, false)
	want := tensor.FromSlice([]float64{0, 0, 2, 0}, 4)
	if !y.Equal(want, 0) {
		t.Fatalf("ReLU = %v", y)
	}
	if x.At(0) != -1 {
		t.Fatal("ReLU mutated input")
	}

	// Bit-level pins for the branch-free selects. Forward keeps x unless
	// x <= 0, so NaNs of either sign survive and −0 becomes +0; backward
	// passes dout exactly (a −0 included) where out > 0 and writes +0
	// elsewhere, a NaN output included. Each case runs on the nil arena
	// and on a poisoned arena, whose write-once handouts arrive NaN-filled.
	negZero := math.Copysign(0, -1)
	nan, inf := math.NaN(), math.Inf(1)
	negNaN := math.Float64frombits(math.Float64bits(nan) | 1<<63)
	in := []float64{-1, 0, negZero, 2, nan, negNaN, inf, -inf, 5e-324, -5e-324, 3}
	wantOut := []float64{0, 0, 0, 2, nan, negNaN, inf, 0, 5e-324, 0, 3}
	dout := []float64{7, 7, 7, negZero, 7, 7, 4, 7, 6, 7, -2}
	wantDx := []float64{0, 0, 0, negZero, 0, 0, 4, 0, 6, 0, -2}
	sameBits := func(what string, got *tensor.Tensor, want []float64) {
		t.Helper()
		for i, w := range want {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(w) {
				t.Fatalf("%s[%d] (input %v) = %v, want %v", what, i, in[i], got.Data()[i], w)
			}
		}
	}
	for _, arena := range []*tensor.Arena{nil, tensor.NewPoisonArena()} {
		r := NewReLU()
		InstallArena(r, arena)
		sameBits("forward", r.Forward(tensor.FromSlice(append([]float64(nil), in...), len(in)), true), wantOut)
		sameBits("backward", r.Backward(tensor.FromSlice(append([]float64(nil), dout...), len(dout))), wantDx)
	}
}

func TestDropoutInference(t *testing.T) {
	rng := xrand.New(4)
	d := NewDropout(0.5, rng)
	x := tensor.Full(1, 100)
	y := d.Forward(x, false)
	if !y.Equal(x, 0) {
		t.Fatal("dropout must be identity at inference")
	}
}

func TestDropoutTrainingPreservesExpectation(t *testing.T) {
	rng := xrand.New(5)
	d := NewDropout(0.3, rng)
	x := tensor.Full(1, 20000)
	y := d.Forward(x, true)
	if math.Abs(y.Mean()-1) > 0.03 {
		t.Fatalf("inverted dropout mean = %v, want ≈1", y.Mean())
	}
	// Survivors must be scaled by 1/(1-rate); dropped are exactly 0.
	for _, v := range y.Data() {
		if v != 0 && math.Abs(v-1/0.7) > 1e-12 {
			t.Fatalf("unexpected dropout value %v", v)
		}
	}
}

func TestDropoutZeroRateBackward(t *testing.T) {
	rng := xrand.New(6)
	d := NewDropout(0, rng)
	x := tensor.Full(2, 5)
	d.Forward(x, true)
	g := d.Backward(tensor.Full(1, 5))
	if !g.Equal(tensor.Full(1, 5), 0) {
		t.Fatal("zero-rate dropout should pass gradients through")
	}
}

func TestMaxPoolForwardValues(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 1,
	}, 1, 1, 4, 4)
	y := p.Forward(x, false)
	want := tensor.FromSlice([]float64{4, 8, 9, 4}, 1, 1, 2, 2)
	if !y.Equal(want, 0) {
		t.Fatalf("MaxPool = %v, want %v", y, want)
	}
}

func TestGlobalAvgPoolValues(t *testing.T) {
	g := NewGlobalAvgPool2D()
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := g.Forward(x, false)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 25 {
		t.Fatalf("GlobalAvgPool = %v", y)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("Flatten shape %v", y.Shape())
	}
	back := f.Backward(tensor.New(2, 60))
	if back.Dims() != 4 || back.Dim(3) != 5 {
		t.Fatalf("Flatten backward shape %v", back.Shape())
	}
}

func TestBatchNormNormalizesTraining(t *testing.T) {
	bn := NewBatchNorm2D("bn", 2)
	rng := xrand.New(7)
	x := tensor.New(8, 2, 4, 4)
	rng.FillNormal(x.Data(), 5, 3) // far from standardized
	y := bn.Forward(x, true)
	// With gamma=1, beta=0 the per-channel output should be ≈ standard.
	for ch := 0; ch < 2; ch++ {
		sum, sum2, n := 0.0, 0.0, 0
		for img := 0; img < 8; img++ {
			for i := 0; i < 16; i++ {
				v := y.Data()[(img*2+ch)*16+i]
				sum += v
				sum2 += v * v
				n++
			}
		}
		mean := sum / float64(n)
		std := math.Sqrt(sum2/float64(n) - mean*mean)
		if math.Abs(mean) > 1e-9 || math.Abs(std-1) > 1e-3 {
			t.Fatalf("channel %d mean/std = %v/%v", ch, mean, std)
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm2D("bn", 1)
	rng := xrand.New(8)
	// Train on many batches so the running stats converge to (5, 9).
	for i := 0; i < 200; i++ {
		x := tensor.New(16, 1, 2, 2)
		rng.FillNormal(x.Data(), 5, 3)
		bn.Forward(x, true)
	}
	x := tensor.Full(5, 4, 1, 2, 2) // constant input at the running mean
	y := bn.Forward(x, false)
	if math.Abs(y.Mean()) > 0.1 {
		t.Fatalf("inference output mean = %v, want ≈0", y.Mean())
	}
}

func TestSequentialComposition(t *testing.T) {
	rng := xrand.New(9)
	net := NewSequential(NewDense("a", 4, 8, rng))
	net.Add(NewReLU(), NewDense("b", 8, 2, rng))
	if net.Len() != 3 {
		t.Fatalf("Len = %d", net.Len())
	}
	y := net.Forward(tensor.New(3, 4), false)
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("output shape %v", y.Shape())
	}
	if len(net.Params()) != 4 {
		t.Fatalf("param groups = %d, want 4", len(net.Params()))
	}
}

func TestParamCountAndZeroGrads(t *testing.T) {
	rng := xrand.New(10)
	net := NewSequential(NewDense("a", 3, 2, rng))
	if got := ParamCount(net); got != 3*2+2 {
		t.Fatalf("ParamCount = %d, want 8", got)
	}
	net.Params()[0].Grad.Fill(1)
	ZeroGrads(net)
	if net.Params()[0].Grad.Sum() != 0 {
		t.Fatal("ZeroGrads did not clear")
	}
}

func TestCopyWeights(t *testing.T) {
	r1, r2 := xrand.New(11), xrand.New(12)
	a := NewSequential(NewDense("fc", 3, 3, r1))
	b := NewSequential(NewDense("fc", 3, 3, r2))
	if err := CopyWeights(b, a); err != nil {
		t.Fatal(err)
	}
	x := tensor.Full(0.5, 2, 3)
	if !a.Forward(x, false).Equal(b.Forward(x, false), 0) {
		t.Fatal("CopyWeights did not make networks identical")
	}
	c := NewSequential(NewDense("fc", 3, 4, xrand.New(13)))
	if err := CopyWeights(c, a); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := xrand.New(14)
	build := func(r *xrand.RNG) *Sequential {
		return NewSequential(
			NewConv2D("c1", 1, 2, 3, 1, 1, r),
			NewBatchNorm2D("bn1", 2),
			NewReLU(),
			NewFlatten(),
			NewDense("fc", 2*4*4, 3, r),
		)
	}
	a := build(rng)
	// Train-forward once so BN has non-default running stats.
	x := tensor.New(4, 1, 4, 4)
	rng.FillNormal(x.Data(), 2, 1)
	a.Forward(x, true)

	var buf bytes.Buffer
	if err := TakeSnapshot(a).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := build(xrand.New(15))
	if err := snap.Restore(b); err != nil {
		t.Fatal(err)
	}
	probe := tensor.New(2, 1, 4, 4)
	xrand.New(16).FillNormal(probe.Data(), 0, 1)
	if !a.Forward(probe, false).Equal(b.Forward(probe, false), 1e-12) {
		t.Fatal("snapshot round trip changed behaviour")
	}
}

func TestSnapshotMissingParam(t *testing.T) {
	rng := xrand.New(17)
	a := NewSequential(NewDense("fc1", 2, 2, rng))
	b := NewSequential(NewDense("fc2", 2, 2, rng))
	if err := TakeSnapshot(a).Restore(b); err == nil {
		t.Fatal("expected error for missing parameter name")
	}
}

func TestSaveLoadWeightsFile(t *testing.T) {
	rng := xrand.New(18)
	a := NewSequential(NewDense("fc", 4, 4, rng))
	path := t.TempDir() + "/w.gob"
	if err := SaveWeights(a, path); err != nil {
		t.Fatal(err)
	}
	b := NewSequential(NewDense("fc", 4, 4, xrand.New(19)))
	if err := LoadWeights(b, path); err != nil {
		t.Fatal(err)
	}
	x := tensor.Full(1, 1, 4)
	if !a.Forward(x, false).Equal(b.Forward(x, false), 0) {
		t.Fatal("weights differ after file round trip")
	}
}

func TestWalkVisitsNested(t *testing.T) {
	rng := xrand.New(20)
	inner := NewSequential(NewConv2D("c", 1, 1, 1, 1, 0, rng))
	res := NewResidual(inner, NewConv2D("p", 1, 1, 1, 1, 0, rng))
	net := NewSequential(res, NewReLU())
	count := 0
	Walk(net, func(Layer) { count++ })
	// net + res + relu + inner seq + conv c + conv p = 6
	if count != 6 {
		t.Fatalf("Walk visited %d layers, want 6", count)
	}
}
