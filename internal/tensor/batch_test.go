package tensor

import (
	"testing"

	"tdfm/internal/xrand"
)

func randTensor(rng *xrand.RNG, shape ...int) *Tensor {
	t := New(shape...)
	rng.FillNormal(t.Data(), 0, 1)
	return t
}

// TestMatMulRowsIndependentOfBatch checks the batching contract directly:
// multiplying a row slice equals the matching rows of the full product,
// bit for bit, for batch splits that do not divide the row count evenly.
func TestMatMulRowsIndependentOfBatch(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	rng := xrand.New(11)
	a := randTensor(rng.Split("a"), 37, 137)
	b := randTensor(rng.Split("b"), 137, 289)
	full := a.MatMul(b)
	for _, bs := range []int{1, 3, 17, 37} {
		for lo := 0; lo < a.Dim(0); lo += bs {
			hi := lo + bs
			if hi > a.Dim(0) {
				hi = a.Dim(0)
			}
			part := a.SliceRows(lo, hi).MatMul(b)
			fullPart := full.SliceRows(lo, hi)
			for i, v := range part.Data() {
				if v != fullPart.Data()[i] {
					t.Fatalf("batch %d rows [%d,%d): element %d = %v, want %v", bs, lo, hi, i, v, fullPart.Data()[i])
				}
			}
		}
	}
}

func TestSliceRowsIsAView(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 4, 2)
	v := x.SliceRows(1, 3)
	if got := v.Shape(); got[0] != 2 || got[1] != 2 {
		t.Fatalf("view shape = %v, want [2 2]", got)
	}
	if v.At(0, 0) != 3 || v.At(1, 1) != 6 {
		t.Fatalf("view contents = %v", v.Data())
	}
	v.Set(99, 0, 0)
	if x.At(1, 0) != 99 {
		t.Fatal("mutating the view did not mutate the parent")
	}
	// 4-d slices address whole images.
	img := New(3, 2, 2, 2)
	img.Data()[8] = 42 // first element of image 1
	s := img.SliceRows(1, 2)
	if s.Dims() != 4 || s.Dim(0) != 1 || s.Data()[0] != 42 {
		t.Fatalf("4-d slice = %v %v", s.Shape(), s.Data()[:1])
	}
	// Empty slices are legal; out-of-range panics.
	if e := img.SliceRows(2, 2); e.Dim(0) != 0 {
		t.Fatalf("empty slice dim = %d", e.Dim(0))
	}
	for _, bad := range [][2]int{{-1, 1}, {0, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SliceRows(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			img.SliceRows(bad[0], bad[1])
		}()
	}
}
