// Package tensor implements dense, row-major float64 tensors and the linear
// algebra required by the neural-network substrate: elementwise arithmetic,
// matrix multiplication, reductions, and the im2col/col2im transforms used
// to express convolutions as matrix products.
//
// The package is deliberately minimal: shapes are explicit, there is no
// broadcasting beyond what the NN layers need, and all operations either
// allocate a fresh result or mutate the receiver in place (methods with the
// "In" suffix or documented in-place semantics). Tensors own their backing
// storage; slices passed to FromSlice are copied at the boundary.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major n-dimensional array of float64.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative or the shape is empty.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	t := &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
	return t
}

// NewLike returns a zero-filled tensor with x's shape, without the
// intermediate shape copy an x.Shape() spread would allocate.
func NewLike(x *Tensor) *Tensor {
	return New(x.shape...)
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// FromSlice returns a tensor with the given shape whose contents are copied
// from data. It panics if len(data) does not match the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for shape %v (need %d)", len(data), shape, n))
	}
	t := &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
	copy(t.data, data)
	return t
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Hand fmt a copy: letting shape itself reach an any parameter
			// would mark it escaping and heap-allocate the variadic shape
			// slice of every New/Arena.Tensor call on the happy path too
			// (escape analysis is flow-insensitive).
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor; callers
// inside this module use it for performance-critical inner loops.
func (t *Tensor) Data() []float64 { return t.data }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) index(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for %d-d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.index(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float64, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's storage with a new shape of equal
// volume. It panics on volume mismatch. One dimension may be -1, in which
// case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	vol := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape allows at most one -1 dimension")
			}
			infer = i
			continue
		}
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		vol *= d
	}
	if infer >= 0 {
		if vol == 0 || len(t.data)%vol != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / vol
		vol *= shape[infer]
	}
	if vol != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes volume", t.shape, shape))
	}
	return &Tensor{shape: shape, data: t.data}
}

// SliceRows returns a view of rows [lo, hi) along the leading dimension:
// shape [hi-lo, rest...] sharing t's backing storage (mutations are
// visible both ways, like Reshape). The chunked inference path uses it
// to address sub-batches of an [N, C, H, W] or [N, K] tensor without
// copying. It panics on an invalid range or on a 0-d leading dimension
// it cannot slice.
func (t *Tensor) SliceRows(lo, hi int) *Tensor {
	if len(t.shape) == 0 {
		panic("tensor: SliceRows on empty shape")
	}
	if lo < 0 || hi < lo || hi > t.shape[0] {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of range for leading dimension %d", lo, hi, t.shape[0]))
	}
	stride := 1
	for _, d := range t.shape[1:] {
		stride *= d
	}
	shape := append([]int(nil), t.shape...)
	shape[0] = hi - lo
	return &Tensor{shape: shape, data: t.data[lo*stride : hi*stride : hi*stride]}
}

// Zero sets every element to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// AddIn adds u to t elementwise in place. Shapes must match.
func (t *Tensor) AddIn(u *Tensor) *Tensor {
	t.mustMatch(u, "AddIn")
	for i, v := range u.data {
		t.data[i] += v
	}
	return t
}

// SubIn subtracts u from t elementwise in place. Shapes must match.
func (t *Tensor) SubIn(u *Tensor) *Tensor {
	t.mustMatch(u, "SubIn")
	for i, v := range u.data {
		t.data[i] -= v
	}
	return t
}

// MulIn multiplies t by u elementwise in place (Hadamard). Shapes must match.
func (t *Tensor) MulIn(u *Tensor) *Tensor {
	t.mustMatch(u, "MulIn")
	for i, v := range u.data {
		t.data[i] *= v
	}
	return t
}

// ScaleIn multiplies every element by s in place.
func (t *Tensor) ScaleIn(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AddScaledIn adds s*u to t in place. Shapes must match.
func (t *Tensor) AddScaledIn(s float64, u *Tensor) *Tensor {
	t.mustMatch(u, "AddScaledIn")
	for i, v := range u.data {
		t.data[i] += float64(s * v) // rounded before the add: never fused (kernels.go)
	}
	return t
}

// Add returns t + u as a new tensor.
func (t *Tensor) Add(u *Tensor) *Tensor { return t.Clone().AddIn(u) }

// Sub returns t - u as a new tensor.
func (t *Tensor) Sub(u *Tensor) *Tensor { return t.Clone().SubIn(u) }

// Mul returns the elementwise product as a new tensor.
func (t *Tensor) Mul(u *Tensor) *Tensor { return t.Clone().MulIn(u) }

// Scale returns s*t as a new tensor.
func (t *Tensor) Scale(s float64) *Tensor { return t.Clone().ScaleIn(s) }

// Apply returns a new tensor with f applied to every element.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	c := t.Clone()
	for i, v := range c.data {
		c.data[i] = f(v)
	}
	return c
}

// ApplyIn applies f to every element in place.
func (t *Tensor) ApplyIn(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

func (t *Tensor) mustMatch(u *Tensor, op string) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, u.shape))
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element. It panics on empty tensors.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on empty tensors.
func (t *Tensor) Min() float64 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v * v) // rounded before the add: never fused (kernels.go)
	}
	return math.Sqrt(s)
}

// ArgMaxRows treats t as a [rows, cols] matrix and returns, for each row,
// the column index of its maximum element. It panics unless t is 2-D.
func (t *Tensor) ArgMaxRows() []int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows needs a 2-d tensor, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		best, bi := row[0], 0
		for c := 1; c < cols; c++ {
			if row[c] > best {
				best, bi = row[c], c
			}
		}
		out[r] = bi
	}
	return out
}

// Row returns a copy of row r of a 2-D tensor.
func (t *Tensor) Row(r int) []float64 {
	if len(t.shape) != 2 {
		panic("tensor: Row needs a 2-d tensor")
	}
	cols := t.shape[1]
	out := make([]float64, cols)
	copy(out, t.data[r*cols:(r+1)*cols])
	return out
}

// SetRow copies vals into row r of a 2-D tensor.
func (t *Tensor) SetRow(r int, vals []float64) {
	if len(t.shape) != 2 {
		panic("tensor: SetRow needs a 2-d tensor")
	}
	cols := t.shape[1]
	if len(vals) != cols {
		panic(fmt.Sprintf("tensor: SetRow got %d values for %d columns", len(vals), cols))
	}
	copy(t.data[r*cols:(r+1)*cols], vals)
}

// MatMul returns the matrix product t × u for 2-D tensors [m,k] × [k,n].
//
// The kernels hold a block of accumulators in registers across the whole
// inner dimension: 4×8 AVX2 blocks on amd64 CPUs that have AVX2
// (kernels_f64.go), 3×2 Go blocks for the tails and elsewhere
// (kernels.go). Blocking never reorders floating point: every output
// element accumulates its contributions in ascending p, one rounded
// multiply then one rounded add per term, exactly the serial loop's
// arithmetic, so the product is bit-identical on either path, at any
// worker count and batch size (each output row depends only on its own
// input row). A zero times an infinity or NaN yields NaN; there is no
// zero-skip.
func (t *Tensor) MatMul(u *Tensor) *Tensor {
	if len(t.shape) != 2 || len(u.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-d operands, got %v and %v", t.shape, u.shape))
	}
	m, k := t.shape[0], t.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", t.shape, u.shape))
	}
	out := New(m, n)
	// Each worker owns a contiguous block of output rows, so any worker
	// count reproduces the serial result bit for bit.
	gemmF64(out.data, t.data, u.data, m, k, n)
	return out
}

// MatMulInto computes t × u into dst, a zero-filled [m,n] tensor (as
// returned by New or Arena.Tensor), and returns dst. It is
// MatMul with caller-owned output storage: the arena-backed layers use it
// to keep matmul results out of the garbage collector. It panics on
// non-2-D operands or any dimension mismatch.
func (t *Tensor) MatMulInto(dst, u *Tensor) *Tensor {
	if len(t.shape) != 2 || len(u.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-d operands, got %v and %v", t.shape, u.shape))
	}
	m, k := t.shape[0], t.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", t.shape, u.shape))
	}
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto destination %v, want [%d,%d]", dst.shape, m, n))
	}
	gemmF64(dst.data, t.data, u.data, m, k, n)
	return dst
}

// MatMulTransA returns tᵀ × u for 2-D tensors t [k,m], u [k,n] -> [m,n],
// on the same kernels and with the same bitwise guarantee as MatMul.
func (t *Tensor) MatMulTransA(u *Tensor) *Tensor {
	if len(t.shape) != 2 || len(u.shape) != 2 {
		panic("tensor: MatMulTransA needs 2-d operands")
	}
	k, m := t.shape[0], t.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %v × %v", t.shape, u.shape))
	}
	out := New(m, n)
	// The p-outer loop accumulates into every output row, so sharding is
	// over output columns (whole 8-column strips on the AVX2 path): each
	// worker applies the full p loop to its own column window, preserving
	// the serial ascending-p accumulation order per element
	// (bit-identical for any worker count).
	gemmTransAF64(out.data, t.data, u.data, k, m, n)
	return out
}

// MatMulTransAInto computes tᵀ × u into dst, a zero-filled [m,n] tensor,
// and returns dst (MatMulTransA with caller-owned output storage). It
// panics on non-2-D operands or any dimension mismatch.
func (t *Tensor) MatMulTransAInto(dst, u *Tensor) *Tensor {
	if len(t.shape) != 2 || len(u.shape) != 2 {
		panic("tensor: MatMulTransA needs 2-d operands")
	}
	k, m := t.shape[0], t.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %v × %v", t.shape, u.shape))
	}
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto destination %v, want [%d,%d]", dst.shape, m, n))
	}
	gemmTransAF64(dst.data, t.data, u.data, k, m, n)
	return dst
}

// MatMulTransBInto computes t × uᵀ for 2-D tensors t [m,k], u [n,k]
// into dst, an [m,n] tensor whose every element is overwritten, and
// returns dst. It runs on the same kernels and with the same bitwise
// guarantee as MatMul. scratch is a [k,n] tensor that the AVX2 path
// overwrites with uᵀ before running MatMul's kernel; its contents on
// entry do not matter, and the portable path leaves it untouched. It
// panics on non-2-D operands or any dimension mismatch.
func (t *Tensor) MatMulTransBInto(dst, u, scratch *Tensor) *Tensor {
	if len(t.shape) != 2 || len(u.shape) != 2 {
		panic("tensor: MatMulTransB needs 2-d operands")
	}
	m, k := t.shape[0], t.shape[1]
	n, k2 := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v × %v", t.shape, u.shape))
	}
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto destination %v, want [%d,%d]", dst.shape, m, n))
	}
	if len(scratch.shape) != 2 || scratch.shape[0] != k || scratch.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto scratch %v, want [%d,%d]", scratch.shape, k, n))
	}
	gemmTransBF64(dst.data, t.data, u.data, scratch.data, m, k, n)
	return dst
}

// Transpose2D returns the transpose of a 2-D tensor as a new tensor.
func (t *Tensor) Transpose2D() *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Transpose2D needs a 2-d tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = t.data[i*n+j]
		}
	}
	return out
}

// SumRows treats t as [rows, cols] and returns the column sums as [cols].
func (t *Tensor) SumRows() *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: SumRows needs a 2-d tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(cols)
	sumRows(out.data, t.data, rows, cols)
	return out
}

// SumRowsInto accumulates the column sums of a [rows, cols] tensor into
// dst, a zero-filled [cols] tensor, and returns dst (SumRows with
// caller-owned output storage). It panics on a non-2-D receiver or a
// destination of the wrong shape.
func (t *Tensor) SumRowsInto(dst *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: SumRows needs a 2-d tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	if len(dst.shape) != 1 || dst.shape[0] != cols {
		panic(fmt.Sprintf("tensor: SumRowsInto destination %v, want [%d]", dst.shape, cols))
	}
	sumRows(dst.data, t.data, rows, cols)
	return dst
}

// AddRowVectorIn adds the [cols] vector v to every row of a [rows, cols]
// tensor in place.
func (t *Tensor) AddRowVectorIn(v *Tensor) *Tensor {
	if len(t.shape) != 2 || len(v.shape) != 1 || v.shape[0] != t.shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVectorIn shape mismatch %v + %v", t.shape, v.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	addRowVector(t.data, v.data, rows, cols)
	return t
}

// Equal reports whether t and u have the same shape and all elements within
// tol of each other. A NaN element equals nothing, itself included; an
// infinity equals only the same infinity.
func (t *Tensor) Equal(u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, v := range t.data {
		w := u.data[i]
		if v != w && !(math.Abs(v-w) <= tol) {
			return false
		}
	}
	return true
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// String renders a compact description (shape plus up to eight leading
// elements), suitable for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if len(t.data) > 8 {
		b.WriteString(", …")
	}
	b.WriteString("]")
	return b.String()
}
