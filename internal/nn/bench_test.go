package nn

import (
	"testing"

	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// BenchmarkReLU measures the activation's forward and backward passes
// per element on a vgg16 block-1 activation at batch 32 ([32, 8, 12, 12],
// normal values, so signs are random), on an arena as the training loop
// runs it.
func BenchmarkReLU(b *testing.B) {
	rng := xrand.New(23).Split("bench-relu")
	x := tensor.New(32, 8, 12, 12)
	rng.FillNormal(x.Data(), 0, 1)
	dout := tensor.New(32, 8, 12, 12)
	rng.FillNormal(dout.Data(), 0, 1)
	r := NewReLU()
	arena := tensor.NewArena()
	InstallArena(r, arena)
	defer arena.Release()
	perElem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.Size()), "ns/elem")
	}
	b.Run("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Forward(x, true)
			arena.Reset()
		}
		perElem(b)
	})
	b.Run("backward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			arena.Reset()
			r.Forward(x, true)
			b.StartTimer()
			r.Backward(dout)
		}
		perElem(b)
	})
}
