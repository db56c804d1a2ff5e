package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tdfm/internal/parallel"
)

// withParallelism runs body with the given per-op cap and a raised shared
// budget (so the parallel path is exercised even on single-core runners),
// restoring the defaults afterwards.
func withParallelism(t *testing.T, n int, body func()) {
	t.Helper()
	parallel.SetBudget(2 * n)
	SetParallelism(n)
	defer func() {
		SetParallelism(0)
		parallel.SetBudget(0)
	}()
	body()
}

func randMatStd(rng *rand.Rand, rows, cols int) *Tensor {
	m := New(rows, cols)
	d := m.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
		if rng.Intn(8) == 0 {
			d[i] = 0 // exact zeros: products must not depend on skipping them
		}
	}
	return m
}

// serialThen recomputes op at Parallelism()==1 and compares bitwise with
// the result at the ambient (parallel) setting.
func assertBitIdentical(t *testing.T, name string, par, serial *Tensor) {
	t.Helper()
	if !par.SameShape(serial) {
		t.Fatalf("%s: shape %v vs serial %v", name, par.Shape(), serial.Shape())
	}
	pd, sd := par.Data(), serial.Data()
	for i := range pd {
		if pd[i] != sd[i] {
			t.Fatalf("%s: element %d differs: parallel %v vs serial %v", name, i, pd[i], sd[i])
		}
	}
}

// TestParallelMatMulOddShapes checks the exact-match contract on the shapes
// most likely to break sharding: fewer rows than workers, rows not a
// multiple of the worker count, single-row and single-column operands, and
// sizes straddling the serial threshold.
func TestParallelMatMulOddShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ m, k, n int }{
		{1, 300, 120}, // 1×N row vector, above threshold
		{300, 120, 1}, // N×1 column output
		{3, 200, 90},  // fewer rows than workers
		{7, 97, 53},   // rows % workers != 0, odd everything
		{13, 64, 48},  // just above minParOps
		{5, 6, 7},     // far below threshold (serial fast path)
	}
	withParallelism(t, 8, func() {
		for _, s := range shapes {
			a := randMatStd(rng, s.m, s.k)
			b := randMatStd(rng, s.k, s.n)
			at := a.Transpose2D() // [k, m]
			bt := b.Transpose2D() // [n, k]

			par := a.MatMul(b)
			parTA := at.MatMulTransA(b)
			parTB := matMulTransB(a, bt)

			SetParallelism(1)
			assertBitIdentical(t, "MatMul", par, a.MatMul(b))
			assertBitIdentical(t, "MatMulTransA", parTA, at.MatMulTransA(b))
			assertBitIdentical(t, "MatMulTransB", parTB, matMulTransB(a, bt))
			SetParallelism(8)
		}
	})
}

// TestParallelMatMulProperty drives randomized shapes through testing/quick.
func TestParallelMatMulProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	withParallelism(t, 4, func() {
		prop := func(mRaw, kRaw, nRaw uint8) bool {
			m, k, n := int(mRaw%40)+1, int(kRaw%60)+1, int(nRaw%40)+1
			a := randMatStd(rng, m, k)
			b := randMatStd(rng, k, n)
			par := a.MatMul(b)
			SetParallelism(1)
			serial := a.MatMul(b)
			SetParallelism(4)
			return par.Equal(serial, 0)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestParallelConvTransforms checks Im2Col/Col2Im and the NCHW layout
// transforms at parallel settings against the serial path, including
// batches smaller than the worker count and stride/padding combinations.
func TestParallelConvTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	geoms := []ConvGeom{
		{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 0, PadW: 0},
		{KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
	}
	batches := []int{1, 3, 7, 16}
	withParallelism(t, 8, func() {
		for _, g := range geoms {
			for _, n := range batches {
				x := New(n, 3, 11, 11)
				d := x.Data()
				for i := range d {
					d[i] = rng.NormFloat64()
				}
				oh, ow := g.OutSize(11, 11)

				cols := Im2Col(x, g)
				back := Col2Im(cols, n, 3, 11, 11, g)
				rows := NCHWToRows(x)
				nchw := RowsToNCHW(rows, n, 3, 11, 11)

				SetParallelism(1)
				assertBitIdentical(t, "Im2Col", cols, Im2Col(x, g))
				assertBitIdentical(t, "Col2Im", back, Col2Im(cols, n, 3, 11, 11, g))
				assertBitIdentical(t, "NCHWToRows", rows, NCHWToRows(x))
				assertBitIdentical(t, "RowsToNCHW", nchw, RowsToNCHW(rows, n, 3, 11, 11))
				SetParallelism(8)
				_ = oh
				_ = ow
			}
		}
	})
}

func TestSetParallelismDefaults(t *testing.T) {
	SetParallelism(3)
	if Parallelism() != 3 {
		t.Fatalf("Parallelism() = %d, want 3", Parallelism())
	}
	SetParallelism(0)
	if Parallelism() < 1 {
		t.Fatalf("Parallelism() = %d after reset", Parallelism())
	}
	SetParallelism(-5)
	if Parallelism() < 1 {
		t.Fatalf("Parallelism() = %d after negative reset", Parallelism())
	}
}
