package tensor

// Benchmarks for the batch-first conv path: one Im2Col + one MatMul over
// a whole [N, C, H, W] batch versus the same work issued one example at a
// time, plus each matrix product of two study conv layers on its own. The
// gated TestEmitTensorBenchJSON runs them through testing.Benchmark and
// writes the measured trajectory to the path in TDFM_BENCH_OUT (the
// committed BENCH_tensor.json baseline; see `make bench-serve`).
// TDFM_BENCH_SHORT=1 trims the batch list for CI.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"tdfm/internal/xrand"
)

// convBenchGeom is the benchmark conv workload: 3→32 channels, 3×3
// same-pad kernel over 16×16 inputs — the shape class the model zoo's
// first conv layers run on the study datasets.
var convBenchGeom = ConvGeom{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}

const (
	convBenchC    = 3
	convBenchHW   = 16
	convBenchOutC = 32
)

// convBenchFlops is the GEMM work of one benchmark image: a multiply and
// an add per term of its [HW·HW, C·KH·KW] × [C·KH·KW, OutC] product.
const convBenchFlops = 2 * convBenchHW * convBenchHW * convBenchC * 3 * 3 * convBenchOutC

// convBenchInput builds a deterministic [n, C, H, W] batch and the conv
// weight matrix shaped for Im2Col output.
func convBenchInput(n int) (*Tensor, *Tensor) {
	rng := xrand.New(11).Split("bench-conv")
	x := New(n, convBenchC, convBenchHW, convBenchHW)
	for i := range x.Data() {
		x.Data()[i] = rng.Float64() - 0.5
	}
	w := New(convBenchC*convBenchGeom.KH*convBenchGeom.KW, convBenchOutC)
	for i := range w.Data() {
		w.Data()[i] = rng.Float64() - 0.5
	}
	return x, w
}

// convBatched is one batched conv: a single Im2Col over all n images and
// one MatMul.
func convBatched(x, w *Tensor) *Tensor {
	return Im2Col(x, convBenchGeom).MatMul(w)
}

// convPerExample issues the identical arithmetic one image at a time —
// the shape of work a per-request serving path generates.
func convPerExample(x, w *Tensor) []*Tensor {
	n := x.Dim(0)
	out := make([]*Tensor, n)
	for i := 0; i < n; i++ {
		out[i] = Im2Col(x.SliceRows(i, i+1), convBenchGeom).MatMul(w)
	}
	return out
}

// convBatchedArena is convBatched with arena storage: the column matrix
// and the product come from a and return with its Reset, so steady-state
// iterations recycle buffers instead of allocating. With pooling
// disabled the arena hands out plain make, the allocate-per-call path
// that the alloc benchmark's unpooled leg measures.
func convBatchedArena(a *Arena, x, w *Tensor) {
	n, h, wd := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := convBenchGeom.OutSize(h, wd)
	cols := a.WriteOnce(n*oh*ow, convBenchC*convBenchGeom.KH*convBenchGeom.KW)
	out := a.Tensor(n*oh*ow, convBenchOutC)
	Im2ColInto(cols, x, convBenchGeom)
	cols.MatMulInto(out, w)
	a.Reset()
}

func benchConv(b *testing.B, n int, batched bool) {
	x, w := convBenchInput(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			convBatched(x, w)
		} else {
			convPerExample(x, w)
		}
	}
	b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkConvIm2ColMatMul(b *testing.B) {
	for _, n := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("per-example/n=%d", n), func(b *testing.B) { benchConv(b, n, false) })
		b.Run(fmt.Sprintf("batched/n=%d", n), func(b *testing.B) { benchConv(b, n, true) })
	}
}

// gemmBenchLayer is a study conv layer at batch 32, as the shape of its
// im2col product: m output positions, k = C·KH·KW, n output channels.
type gemmBenchLayer struct {
	name    string
	m, k, n int
}

// gemmBenchLayers are the layers the per-product rows measure: convnet's
// first conv (3→8 channels on 12×12 inputs) and a late vgg16 conv (32→32
// channels on 3×3 maps).
var gemmBenchLayers = []gemmBenchLayer{
	{"convnet", 4608, 27, 8},
	{"vgg16", 288, 288, 32},
}

// gemmProducts names the three products of one conv layer: the forward
// cols × W, the weight gradient colsᵀ × dY, and the column gradient
// dY × Wᵀ.
var gemmProducts = []string{"forward", "transA", "transB"}

// flops is the floating-point operation count of any of the layer's
// products: one multiply and one add per term.
func (l gemmBenchLayer) flops() float64 { return 2 * float64(l.m*l.k*l.n) }

// benchGemm times one product of layer l on one worker, with a fresh
// zero-filled destination per iteration as the layers run it.
func benchGemm(b *testing.B, l gemmBenchLayer, product string) {
	defer SetParallelism(Parallelism())
	SetParallelism(1)
	rng := xrand.New(17).Split("bench-gemm")
	cols := randTensor(rng.Split("cols"), l.m, l.k)
	w := randTensor(rng.Split("w"), l.k, l.n)
	dy := randTensor(rng.Split("dy"), l.m, l.n)
	var run func()
	switch product {
	case "forward":
		dst := New(l.m, l.n)
		run = func() { dst.Zero(); cols.MatMulInto(dst, w) }
	case "transA":
		dst := New(l.k, l.n)
		run = func() { dst.Zero(); cols.MatMulTransAInto(dst, dy) }
	case "transB":
		dst, scratch := New(l.m, l.k), New(l.n, l.k)
		run = func() { dy.MatMulTransBInto(dst, w, scratch) }
	default:
		b.Fatalf("unknown product %q", product)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(l.flops()*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkGemm measures each product of each study layer on both
// float64 paths: the Go kernels (avx2=false) and the AVX2 kernel.
func BenchmarkGemm(b *testing.B) {
	for _, l := range gemmBenchLayers {
		for _, product := range gemmProducts {
			for _, on := range []bool{false, true} {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s/avx2=%v", l.name, l.m, l.k, l.n, product, on),
					func(b *testing.B) { withAVX2(b, on, func() { benchGemm(b, l, product) }) })
			}
		}
	}
}

// transformBenchLayer is a study conv layer's data movement at batch 32:
// an [n, c, h, w] input unrolled through geometry g.
type transformBenchLayer struct {
	name       string
	n, c, h, w int
	g          ConvGeom
}

// transformBenchLayers are the layers the im2col/col2im rows measure: a
// resnet50 stage-1 bottleneck 1×1 conv (8 channels on 12×12 maps, the
// pointwise route) and a vgg16 block-1 3×3 conv (8 channels on 12×12
// maps, same padding).
var transformBenchLayers = []transformBenchLayer{
	{"resnet50-1x1", 32, 8, 12, 12, ConvGeom{KH: 1, KW: 1, StrideH: 1, StrideW: 1}},
	{"vgg16-3x3", 32, 8, 12, 12, ConvGeom{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
}

// transforms names the two data movements of one conv layer: im2col in
// the forward pass, col2im in the backward pass.
var transforms = []string{"im2col", "col2im"}

// elems is the size of the layer's im2col matrix, the element count
// both transforms move.
func (l transformBenchLayer) elems() int {
	oh, ow := l.g.OutSize(l.h, l.w)
	return l.n * oh * ow * l.c * l.g.KH * l.g.KW
}

// benchTransform times one transform of layer l on one worker, into a
// destination reused across iterations as the arena reuses it, and
// reports nanoseconds per element of the im2col matrix.
func benchTransform(b *testing.B, l transformBenchLayer, transform string) {
	defer SetParallelism(Parallelism())
	SetParallelism(1)
	rng := xrand.New(19).Split("bench-transform")
	x := randTensor(rng.Split("x"), l.n, l.c, l.h, l.w)
	cols := Im2Col(x, l.g)
	var run func()
	switch transform {
	case "im2col":
		run = func() { Im2ColInto(cols, x, l.g) }
	case "col2im":
		run = func() { Col2ImInto(x, cols, l.g) }
	default:
		b.Fatalf("unknown transform %q", transform)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*l.elems()), "ns/elem")
}

// BenchmarkConvTransforms measures im2col and col2im per element of the
// column matrix on the study layers.
func BenchmarkConvTransforms(b *testing.B) {
	for _, l := range transformBenchLayers {
		for _, tr := range transforms {
			b.Run(fmt.Sprintf("%s/%s", l.name, tr), func(b *testing.B) { benchTransform(b, l, tr) })
		}
	}
}

// benchAllocConv measures the batched conv on an arena with pooling
// forced on or off. One warm-up call primes the arena so the pooled leg
// reports its steady state rather than first-touch misses.
func benchAllocConv(b *testing.B, n int, pooled bool) {
	old := PoolingEnabled()
	SetPooling(pooled)
	defer SetPooling(old)
	x, w := convBenchInput(n)
	a := NewArena()
	convBatchedArena(a, x, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		convBatchedArena(a, x, w)
	}
	b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "rows/s")
}

// benchConvUnpooled measures the batched conv with pooling disabled, so
// B/op is the storage a pass allocates fresh rather than what buffer
// reuse leaves of it.
func benchConvUnpooled(b *testing.B, n int) {
	old := PoolingEnabled()
	SetPooling(false)
	defer SetPooling(old)
	x, w := convBenchInput(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		convBatched(x, w)
	}
	b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkAllocConv tracks the conv path's allocation rate with arena
// reuse on versus off (run with -benchmem; the allocs/op and B/op
// columns are the point).
func BenchmarkAllocConv(b *testing.B) {
	b.Run("pooled", func(b *testing.B) { benchAllocConv(b, 32, true) })
	b.Run("unpooled", func(b *testing.B) { benchAllocConv(b, 32, false) })
}

// BenchmarkConvUnpooled tracks the batched conv's fresh storage per pass
// (run with -benchmem; see benchConvUnpooled).
func BenchmarkConvUnpooled(b *testing.B) { benchConvUnpooled(b, 32) }

// benchRecord is one measured configuration in a BENCH_*.json trajectory.
type benchRecord struct {
	Name       string  `json:"name"`
	Rows       int     `json:"rows"`
	NsPerRow   float64 `json:"ns_per_row"`
	RowsPerSec float64 `json:"rows_per_sec"`
	// GFLOPS is the record's GEMM arithmetic per second: 2·m·k·n per
	// product. For conv rows the time also covers Im2Col, so it reads as
	// the conv's effective rate.
	GFLOPS float64 `json:"gflops,omitempty"`
	// Memory columns, filled only by measureAlloc (per benchmark op, not
	// per row, mirroring -benchmem).
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
}

// benchFile is the committed benchmark baseline format shared by
// BENCH_tensor.json and BENCH_serve.json.
type benchFile struct {
	Suite      string             `json:"suite"`
	Go         string             `json:"go"`
	MaxProcs   int                `json:"maxprocs"`
	Benchmarks []benchRecord      `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
}

// writeBenchFile marshals f to path with a trailing newline.
func writeBenchFile(path string, f benchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchReps is how many times each record reruns testing.Benchmark; the
// fastest repetition is kept. On a shared single-core host the slower
// repetitions measure scheduler interference, not the code, and the
// committed baseline should measure the code.
const benchReps = 3

// bestOf returns the fastest of benchReps testing.Benchmark runs of fn.
func bestOf(fn func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(fn)
	for i := 1; i < benchReps; i++ {
		if r := testing.Benchmark(fn); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// measureRows runs fn through bestOf and converts the result to a
// per-row record, where each fn iteration processes rows rows.
func measureRows(name string, rows int, fn func(b *testing.B)) benchRecord {
	r := bestOf(fn)
	perRow := float64(r.T.Nanoseconds()) / float64(r.N*rows)
	return benchRecord{
		Name:       name,
		Rows:       rows,
		NsPerRow:   perRow,
		RowsPerSec: 1e9 / perRow,
	}
}

// measureAlloc is measureRows with the -benchmem columns attached: fn runs
// with allocation tracking and the record carries allocs/op and B/op.
func measureAlloc(name string, rows int, fn func(b *testing.B)) benchRecord {
	r := bestOf(func(b *testing.B) { b.ReportAllocs(); fn(b) })
	perRow := float64(r.T.Nanoseconds()) / float64(r.N*rows)
	return benchRecord{
		Name:        name,
		Rows:        rows,
		NsPerRow:    perRow,
		RowsPerSec:  1e9 / perRow,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// ratio returns a/b guarding against a zero denominator (a perfectly
// allocation-free pooled leg would otherwise divide by zero).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// TestEmitTensorBenchJSON measures the per-example versus batched conv
// trajectory and writes it to TDFM_BENCH_OUT. Gated: without the env var
// the test skips, so the ordinary test run never spends benchmark time.
func TestEmitTensorBenchJSON(t *testing.T) {
	out := os.Getenv("TDFM_BENCH_OUT")
	if out == "" {
		t.Skip("TDFM_BENCH_OUT not set")
	}
	sizes := []int{1, 8, 32, 128}
	if os.Getenv("TDFM_BENCH_SHORT") != "" {
		sizes = []int{1, 32}
	}
	f := benchFile{
		Suite:    "tensor-conv",
		Go:       runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		MaxProcs: runtime.GOMAXPROCS(0),
		Speedups: map[string]float64{},
	}
	perRow := map[string]float64{}
	for _, n := range sizes {
		n := n
		single := measureRows(fmt.Sprintf("conv/per-example/n=%d", n), n,
			func(b *testing.B) { benchConv(b, n, false) })
		batched := measureRows(fmt.Sprintf("conv/batched/n=%d", n), n,
			func(b *testing.B) { benchConv(b, n, true) })
		single.GFLOPS = convBenchFlops / single.NsPerRow
		batched.GFLOPS = convBenchFlops / batched.NsPerRow
		f.Benchmarks = append(f.Benchmarks, single, batched)
		perRow[single.Name], perRow[batched.Name] = single.NsPerRow, batched.NsPerRow
		f.Speedups[fmt.Sprintf("batched_vs_per_example_n%d", n)] =
			single.NsPerRow / batched.NsPerRow
	}

	// Per-product rows: the forward and both backward products of two
	// study conv layers, each on one worker.
	for _, l := range gemmBenchLayers {
		for _, product := range gemmProducts {
			r := measureRows(fmt.Sprintf("gemm/%s/%dx%dx%d/%s", l.name, l.m, l.k, l.n, product), 1,
				func(b *testing.B) { benchGemm(b, l, product) })
			r.GFLOPS = l.flops() / r.NsPerRow
			f.Benchmarks = append(f.Benchmarks, r)
		}
	}

	// Data-movement rows: ns_per_row is nanoseconds per element of the
	// layer's im2col matrix, on one worker.
	for _, l := range transformBenchLayers {
		for _, tr := range transforms {
			f.Benchmarks = append(f.Benchmarks, measureRows(fmt.Sprintf("%s/%s/%dx%dx%dx%d", tr, l.name, l.n, l.c, l.h, l.w), l.elems(),
				func(b *testing.B) { benchTransform(b, l, tr) }))
		}
	}

	// Memory rows: pool on/off through the same code path, then the
	// batched conv's fresh storage with pooling off.
	const allocN = 32
	pooled := measureAlloc(fmt.Sprintf("alloc/conv/pooled/n=%d", allocN), allocN,
		func(b *testing.B) { benchAllocConv(b, allocN, true) })
	unpooled := measureAlloc(fmt.Sprintf("alloc/conv/unpooled/n=%d", allocN), allocN,
		func(b *testing.B) { benchAllocConv(b, allocN, false) })
	f64c := measureAlloc(fmt.Sprintf("conv/f64/n=%d", allocN), allocN,
		func(b *testing.B) { benchConvUnpooled(b, allocN) })
	for _, r := range []*benchRecord{&pooled, &unpooled, &f64c} {
		r.GFLOPS = convBenchFlops / r.NsPerRow
	}
	f.Benchmarks = append(f.Benchmarks, pooled, unpooled, f64c)
	f.Speedups[fmt.Sprintf("conv_allocs_unpooled_vs_pooled_n%d", allocN)] =
		ratio(unpooled.AllocsPerOp, pooled.AllocsPerOp)
	f.Speedups[fmt.Sprintf("conv_bytes_unpooled_vs_pooled_n%d", allocN)] =
		ratio(unpooled.BytesPerOp, pooled.BytesPerOp)

	if err := writeBenchFile(out, f); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d records)", out, len(f.Benchmarks))
}
