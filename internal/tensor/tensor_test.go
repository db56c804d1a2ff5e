package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"tdfm/internal/xrand"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 {
		t.Fatalf("Size = %d, want 6", x.Size())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromSliceCopiesAtBoundary(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	x := FromSlice(src, 2, 2)
	src[0] = 99
	if x.At(0, 0) != 1 {
		t.Fatalf("FromSlice aliased caller slice: got %v", x.At(0, 0))
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major layout: index (1,2,3) = ((1*3)+2)*4+3 = 23.
	if x.Data()[23] != 7.5 {
		t.Fatalf("row-major layout violated")
	}
}

func TestIndexPanics(t *testing.T) {
	x := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", idx)
				}
			}()
			x.At(idx...)
		}()
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatalf("Reshape must share storage")
	}
	z := x.Reshape(-1, 2)
	if z.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Dim(0))
	}
}

func TestReshapeVolumeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	if got := a.Add(b).Sum(); got != 110 {
		t.Errorf("Add sum = %v, want 110", got)
	}
	if got := b.Sub(a).Sum(); got != 90 {
		t.Errorf("Sub sum = %v, want 90", got)
	}
	if got := a.Mul(b).Sum(); got != 10+40+90+160 {
		t.Errorf("Mul sum = %v", got)
	}
	if got := a.Scale(2).Sum(); got != 20 {
		t.Errorf("Scale sum = %v, want 20", got)
	}
	c := a.Clone()
	c.AddScaledIn(0.5, b)
	want := FromSlice([]float64{6, 12, 18, 24}, 2, 2)
	if !c.Equal(want, 1e-12) {
		t.Errorf("AddScaledIn = %v, want %v", c, want)
	}
}

func TestApplyDoesNotMutate(t *testing.T) {
	a := FromSlice([]float64{1, 4, 9}, 3)
	b := a.Apply(math.Sqrt)
	if a.At(1) != 4 {
		t.Fatal("Apply mutated receiver")
	}
	if b.At(2) != 3 {
		t.Fatalf("Apply result wrong: %v", b)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{3, -1, 4, 1, -5, 9}, 2, 3)
	if a.Sum() != 11 {
		t.Errorf("Sum = %v", a.Sum())
	}
	if math.Abs(a.Mean()-11.0/6) > 1e-12 {
		t.Errorf("Mean = %v", a.Mean())
	}
	if a.Max() != 9 || a.Min() != -5 {
		t.Errorf("Max/Min = %v/%v", a.Max(), a.Min())
	}
	if math.Abs(a.L2Norm()-math.Sqrt(9+1+16+1+25+81)) > 1e-12 {
		t.Errorf("L2Norm = %v", a.L2Norm())
	}
}

func TestArgMaxRows(t *testing.T) {
	a := FromSlice([]float64{
		0.1, 0.9, 0.0,
		0.5, 0.2, 0.3,
		0.0, 0.0, 1.0,
	}, 3, 3)
	got := a.ArgMaxRows()
	want := []int{1, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgMaxRows = %v, want %v", got, want)
		}
	}
}

func TestMatMulKnownProduct(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := a.MatMul(b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).MatMul(New(2, 3))
}

func randMat(rng *xrand.RNG, m, n int) *Tensor {
	x := New(m, n)
	rng.FillNormal(x.Data(), 0, 1)
	return x
}

// MatMulTransA(a, b) must equal aᵀ × b computed the long way.
func TestMatMulTransAgainstExplicitTranspose(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.IntN(6), 1+rng.IntN(6), 1+rng.IntN(6)
		a := randMat(rng, k, m)
		b := randMat(rng, k, n)
		got := a.MatMulTransA(b)
		want := a.Transpose2D().MatMul(b)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("trial %d: MatMulTransA mismatch", trial)
		}
		c := randMat(rng, m, k)
		d := randMat(rng, n, k)
		got2 := matMulTransB(c, d)
		want2 := c.MatMul(d.Transpose2D())
		if !got2.Equal(want2, 1e-9) {
			t.Fatalf("trial %d: MatMulTransB mismatch", trial)
		}
	}
}

// matMulTransB returns a × bᵀ in fresh storage, scratch included.
func matMulTransB(a, b *Tensor) *Tensor {
	return a.MatMulTransBInto(New(a.Dim(0), b.Dim(0)), b, New(a.Dim(1), b.Dim(0)))
}

// Property: matrix multiplication distributes over addition.
func TestQuickMatMulDistributive(t *testing.T) {
	rng := xrand.New(2)
	f := func(seed uint64) bool {
		r := xrand.New(seed%1000 + 1)
		m, k, n := 1+r.IntN(5), 1+r.IntN(5), 1+r.IntN(5)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		c := randMat(rng, k, n)
		left := a.MatMul(b.Add(c))
		right := a.MatMul(b).Add(a.MatMul(c))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	rng := xrand.New(3)
	f := func(seed uint64) bool {
		r := xrand.New(seed%1000 + 1)
		m, k, n := 1+r.IntN(5), 1+r.IntN(5), 1+r.IntN(5)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		left := a.MatMul(b).Transpose2D()
		right := b.Transpose2D().MatMul(a.Transpose2D())
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSumRowsAndAddRowVector(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	s := a.SumRows()
	want := FromSlice([]float64{5, 7, 9}, 3)
	if !s.Equal(want, 1e-12) {
		t.Fatalf("SumRows = %v, want %v", s, want)
	}
	v := FromSlice([]float64{10, 20, 30}, 3)
	a.AddRowVectorIn(v)
	want2 := FromSlice([]float64{11, 22, 33, 14, 25, 36}, 2, 3)
	if !a.Equal(want2, 1e-12) {
		t.Fatalf("AddRowVectorIn = %v, want %v", a, want2)
	}
}

func TestHasNaN(t *testing.T) {
	a := New(2, 2)
	if a.HasNaN() {
		t.Fatal("zero tensor reported NaN")
	}
	a.Set(math.NaN(), 0, 1)
	if !a.HasNaN() {
		t.Fatal("NaN not detected")
	}
	b := New(1)
	b.Set(math.Inf(1), 0)
	if !b.HasNaN() {
		t.Fatal("Inf not detected")
	}
}

// TestEqualNonFinite is the regression test for Equal treating NaN as
// equal to anything (|NaN − x| > tol is false): a NaN must fail every
// comparison, while identical infinities still compare equal.
func TestEqualNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		a, b float64
		tol  float64
		want bool
	}{
		{nan, 0, 1e9, false},
		{0, nan, 1e9, false},
		{nan, nan, 0, false},
		{nan, nan, math.Inf(1), false},
		{inf, inf, 0, true},
		{-inf, -inf, 1e-12, true},
		{inf, -inf, 0, false},
		{inf, math.MaxFloat64, 1e300, false},
		{1, 1 + 1e-13, 1e-12, true},
		{1, 1.1, 1e-12, false},
	} {
		x := FromSlice([]float64{7, c.a}, 2)
		y := FromSlice([]float64{7, c.b}, 2)
		if got := x.Equal(y, c.tol); got != c.want {
			t.Errorf("Equal(%v, %v, tol %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Set(9, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestStringTruncates(t *testing.T) {
	a := New(100)
	s := a.String()
	if len(s) == 0 || len(s) > 120 {
		t.Fatalf("String length %d unreasonable: %q", len(s), s)
	}
}

// TestIntoVariantsMatchAllocating pins the Into variants against their
// allocating counterparts bit for bit (they share kernels; this guards
// the wrappers' shape plumbing). MatMulTransBInto, which has none, is
// pinned against MatMul of the explicit transpose, with a NaN-filled
// scratch that it must overwrite before reading.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := xrand.New(11).Split("into-parity")
	const m, k, n = 9, 11, 8
	a := New(m, k)
	b := New(k, n)
	bt := New(n, k)
	at := New(k, m)
	for _, ten := range []*Tensor{a, b, bt, at} {
		for i := range ten.Data() {
			ten.Data()[i] = rng.NormFloat64()
		}
	}
	checks := []struct {
		name      string
		want, got *Tensor
	}{
		{"MatMul", a.MatMul(b), a.MatMulInto(New(m, n), b)},
		{"MatMulTransA", at.MatMulTransA(b), at.MatMulTransAInto(New(m, n), b)},
		{"MatMulTransB", a.MatMul(bt.Transpose2D()), a.MatMulTransBInto(New(m, n), bt, Full(math.NaN(), k, n))},
		{"SumRows", a.SumRows(), a.SumRowsInto(New(k))},
	}
	for _, c := range checks {
		for i := range c.want.Data() {
			if c.want.Data()[i] != c.got.Data()[i] {
				t.Fatalf("%s Into variant differs at %d", c.name, i)
			}
		}
	}

	x := New(2, 3, 6, 6)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	g := ConvGeom{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	oh, ow := g.OutSize(6, 6)
	wantCols := Im2Col(x, g)
	gotCols := Im2ColInto(New(2*oh*ow, 3*9), x, g)
	for i := range wantCols.Data() {
		if wantCols.Data()[i] != gotCols.Data()[i] {
			t.Fatalf("Im2ColInto differs at %d", i)
		}
	}
	wantIm := Col2Im(wantCols, 2, 3, 6, 6, g)
	gotIm := Col2ImInto(New(2, 3, 6, 6), wantCols, g)
	for i := range wantIm.Data() {
		if wantIm.Data()[i] != gotIm.Data()[i] {
			t.Fatalf("Col2ImInto differs at %d", i)
		}
	}
	rows := NCHWToRows(x)
	gotRows := NCHWToRowsInto(New(2*36, 3), x)
	for i := range rows.Data() {
		if rows.Data()[i] != gotRows.Data()[i] {
			t.Fatalf("NCHWToRowsInto differs at %d", i)
		}
	}
	wantBack := RowsToNCHW(rows, 2, 3, 6, 6)
	gotBack := RowsToNCHWInto(New(2, 3, 6, 6), rows)
	for i := range wantBack.Data() {
		if wantBack.Data()[i] != gotBack.Data()[i] {
			t.Fatalf("RowsToNCHWInto differs at %d", i)
		}
	}
}
