package tensor

import "fmt"

// F32 is the float32 storage variant of Tensor, used by the inference-only
// precision mode (serve.Options.Precision): weights are converted once and
// activations flow through the same generic kernels at half the memory
// bandwidth. F32 deliberately exposes only the operations the float32
// inference twins need — training always runs in float64.
type F32 struct {
	shape []int
	data  []float32
}

// NewF32 returns a zero-filled float32 tensor with the given shape. It
// panics if any dimension is negative or the shape is empty.
func NewF32(shape ...int) *F32 {
	n := checkShape(shape)
	return &F32{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// F32FromTensor returns a float32 copy of t (each element rounded to
// nearest by the float32 conversion).
func F32FromTensor(t *Tensor) *F32 {
	f := &F32{shape: append([]int(nil), t.shape...), data: make([]float32, len(t.data))}
	for i, v := range t.data {
		f.data[i] = float32(v)
	}
	return f
}

// ToTensor returns a fresh float64 copy of f (every float32 value converts
// exactly). The result has ordinary GC-managed storage, so it may safely
// outlive any arena f was allocated from.
func (f *F32) ToTensor() *Tensor {
	t := &Tensor{shape: append([]int(nil), f.shape...), data: make([]float64, len(f.data))}
	for i, v := range f.data {
		t.data[i] = float64(v)
	}
	return t
}

// Shape returns a copy of the tensor's shape.
func (f *F32) Shape() []int { return append([]int(nil), f.shape...) }

// Dims returns the number of dimensions.
func (f *F32) Dims() int { return len(f.shape) }

// Dim returns the size of dimension i.
func (f *F32) Dim(i int) int { return f.shape[i] }

// Size returns the total number of elements.
func (f *F32) Size() int { return len(f.data) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (f *F32) Data() []float32 { return f.data }

// Reshape returns a tensor sharing f's storage with a new shape of equal
// volume (no -1 inference; the f32 twins know their shapes exactly). It
// panics on volume mismatch.
func (f *F32) Reshape(shape ...int) *F32 {
	n := checkShape(shape)
	if n != len(f.data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes volume", f.shape, shape))
	}
	return &F32{shape: append([]int(nil), shape...), data: f.data}
}

// SliceRows returns a view of rows [lo, hi) along the leading dimension,
// sharing f's storage (see Tensor.SliceRows). It panics on an invalid
// range.
func (f *F32) SliceRows(lo, hi int) *F32 {
	if len(f.shape) == 0 {
		panic("tensor: SliceRows on empty shape")
	}
	if lo < 0 || hi < lo || hi > f.shape[0] {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of range for leading dimension %d", lo, hi, f.shape[0]))
	}
	stride := 1
	for _, d := range f.shape[1:] {
		stride *= d
	}
	shape := append([]int(nil), f.shape...)
	shape[0] = hi - lo
	return &F32{shape: shape, data: f.data[lo*stride : hi*stride : hi*stride]}
}

// AddIn adds u to f elementwise in place. Shapes must match.
func (f *F32) AddIn(u *F32) *F32 {
	if len(f.data) != len(u.data) {
		panic(fmt.Sprintf("tensor: AddIn shape mismatch %v vs %v", f.shape, u.shape))
	}
	for i, v := range u.data {
		f.data[i] += v
	}
	return f
}

// AddRowVectorIn adds the [cols] vector v to every row of a [rows, cols]
// tensor in place.
func (f *F32) AddRowVectorIn(v *F32) *F32 {
	if len(f.shape) != 2 || len(v.shape) != 1 || v.shape[0] != f.shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVectorIn shape mismatch %v + %v", f.shape, v.shape))
	}
	addRowVector(f.data, v.data, f.shape[0], f.shape[1])
	return f
}

// MatMulInto computes f × u into dst, a zero-filled [m,n] float32 tensor,
// and returns dst. Same register-blocked kernel, determinism contract and
// non-finite rule as Tensor.MatMul, instantiated at float32. It panics on
// non-2-D operands or any dimension mismatch.
func (f *F32) MatMulInto(dst, u *F32) *F32 {
	if len(f.shape) != 2 || len(u.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-d operands, got %v and %v", f.shape, u.shape))
	}
	m, k := f.shape[0], f.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", f.shape, u.shape))
	}
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto destination %v, want [%d,%d]", dst.shape, m, n))
	}
	gemm(dst.data, f.data, u.data, m, k, n)
	return dst
}

// Im2ColF32Into unrolls x, an [N,C,H,W] float32 tensor, into dst, an
// [N*OH*OW, C*KH*KW] float32 matrix whose every element is overwritten
// (see Im2ColInto). It returns dst.
func Im2ColF32Into(dst, x *F32, g ConvGeom) *F32 {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col needs [N,C,H,W], got %v", x.Shape()))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	g.Validate(h, w)
	oh, ow := g.OutSize(h, w)
	if dst.Dims() != 2 || dst.shape[0] != n*oh*ow || dst.shape[1] != c*g.KH*g.KW {
		panic(fmt.Sprintf("tensor: Im2ColInto destination %v, want [%d,%d]", dst.Shape(), n*oh*ow, c*g.KH*g.KW))
	}
	im2colKernel(dst.data, x.data, n, c, h, w, g)
	return dst
}

// RowsToNCHWF32Into reinterprets position-major rows [N*OH*OW, C] as the
// [N,C,OH,OW] destination (see RowsToNCHWInto). It returns dst.
func RowsToNCHWF32Into(dst, rows *F32) *F32 {
	if dst.Dims() != 4 {
		panic(fmt.Sprintf("tensor: RowsToNCHWInto needs an [N,C,OH,OW] destination, got %v", dst.Shape()))
	}
	n, c, oh, ow := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	if rows.Dims() != 2 || rows.shape[0] != n*oh*ow || rows.shape[1] != c {
		panic(fmt.Sprintf("tensor: RowsToNCHW got %v, want [%d,%d]", rows.Shape(), n*oh*ow, c))
	}
	rowsToNCHWKernel(dst.data, rows.data, n, c, oh, ow)
	return dst
}

// ConvertToF32 copies t into dst, a float32 tensor of identical shape
// (typically arena-backed), rounding each element to nearest. It returns
// dst and panics on a shape mismatch.
func ConvertToF32(dst *F32, t *Tensor) *F32 {
	if len(dst.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: ConvertToF32 shape mismatch %v vs %v", dst.shape, t.shape))
	}
	for i, v := range t.data {
		dst.data[i] = float32(v)
	}
	return dst
}
