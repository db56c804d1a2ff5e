package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tdfm/internal/data"
	"tdfm/internal/datagen"
	"tdfm/internal/experiment"
	"tdfm/internal/faultinject"
	"tdfm/internal/loss"
	"tdfm/internal/models"
	"tdfm/internal/nn"
	"tdfm/internal/obs"
	"tdfm/internal/opt"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

const (
	// probeReps and probeTime bound each probe: at least probeReps
	// repetitions and at least probeTime of them; the median is kept.
	probeReps = 5
	probeTime = 100 * time.Millisecond
	// batch is the probe batch size, the training batch size.
	batch = 32
)

// repeat times f at least probeReps times and for at least probeTime.
func repeat(f func() time.Duration) []time.Duration {
	var out []time.Duration
	for start := time.Now(); len(out) < probeReps || time.Since(start) < probeTime; {
		out = append(out, f())
	}
	return out
}

func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// probeLayers builds each probed architecture with models.Build at the
// gtsrblike shape on a fresh arena, and times forward passes at b=1 and
// b=32, the conv and residual top-level layers at b=32, and one b=32
// training step split into forward, loss, backward and the Adam step.
func probeLayers(seed uint64, out map[string]float64) error {
	cfg := datagen.Presets(datagen.ScaleTiny, seed)["gtsrblike"]
	train, _, err := datagen.Generate(cfg)
	if err != nil {
		return err
	}
	x1, xb := train.X.SliceRows(0, 1), train.X.SliceRows(0, batch)
	yb := data.OneHot(train.Labels[:batch], cfg.NumClasses)
	for _, arch := range probeArchs {
		info, err := models.Get(arch)
		if err != nil {
			return err
		}
		net, err := info.Build(models.BuildConfig{InChannels: cfg.Channels, Height: cfg.Height,
			Width: cfg.Width, NumClasses: cfg.NumClasses, WidthMult: 1, RNG: xrand.New(seed).Split("probe/" + arch)})
		if err != nil {
			return err
		}
		arena := tensor.NewArena()
		nn.InstallArena(net, arena)
		forward := func(x *tensor.Tensor) func() time.Duration {
			return func() time.Duration {
				start := time.Now()
				net.Forward(x, false)
				d := time.Since(start)
				arena.Reset()
				return d
			}
		}
		out["nn.fwd_b1_ms."+arch] = medianMS(repeat(forward(x1)))
		out["nn.fwd_b32_ms."+arch] = medianMS(repeat(forward(xb)))

		var conv, residual []time.Duration
		var flops float64
		repeat(func() time.Duration {
			var c, r time.Duration
			var f float64
			x := xb
			for _, l := range net.Layers() {
				start := time.Now()
				y := l.Forward(x, false)
				d := time.Since(start)
				switch l.(type) {
				case *nn.Conv2D, *nn.DepthwiseConv2D:
					c += d
					// 2 FLOPs per multiply-add: each output element takes
					// one per weight of its output channel.
					f += 2 * float64(l.Params()[0].W.Size()) * float64(y.Size()) / float64(y.Dim(1))
				case *nn.Residual:
					r += d
				}
				x = y
			}
			arena.Reset()
			conv, residual, flops = append(conv, c), append(residual, r), f
			return c + r
		})
		out["nn.conv_fwd_b32_ms."+arch] = medianMS(conv)
		if hasResidual(arch) {
			out["nn.residual_fwd_b32_ms."+arch] = medianMS(residual)
		}
		out["tensor.conv_gflops."+arch] = flops / (medianMS(conv) * 1e6)

		adam := opt.NewAdam(info.DefaultLR)
		params := net.Params()
		var fwd, lossT, bwd, step []time.Duration
		repeat(func() time.Duration {
			t0 := time.Now()
			logits := net.Forward(xb, true)
			t1 := time.Now()
			_, grad := loss.CrossEntropy{}.Forward(logits, yb)
			t2 := time.Now()
			net.Backward(grad)
			t3 := time.Now()
			adam.Step(params)
			t4 := time.Now()
			nn.ZeroGrads(net)
			arena.Reset()
			fwd, lossT, bwd, step = append(fwd, t1.Sub(t0)), append(lossT, t2.Sub(t1)), append(bwd, t3.Sub(t2)), append(step, t4.Sub(t3))
			return t4.Sub(t0)
		})
		adam.Release()
		out["nn.train_fwd_ms."+arch] = medianMS(fwd)
		out["loss.ms."+arch] = medianMS(lossT)
		out["nn.bwd_ms."+arch] = medianMS(bwd)
		out["opt.step_ms."+arch] = medianMS(step)
	}

	var gen, inject []time.Duration
	repeat(func() time.Duration {
		start := time.Now()
		tr, _, err := datagen.Generate(cfg)
		d := time.Since(start)
		if err == nil {
			gen = append(gen, d)
			inj := faultinject.New(xrand.New(seed).Split("inject"))
			start = time.Now()
			_, _, _ = inj.Inject(tr, faultinject.Spec{Type: faultinject.Mislabel, Rate: 0.3})
			inject = append(inject, time.Since(start))
		}
		return d
	})
	out["datagen.generate_ms"] = medianMS(gen)
	out["faultinject.inject_ms"] = medianMS(inject)
	return nil
}

// cellEvent is one cell start or finish seen by the grid recorder.
type cellEvent struct {
	at    time.Duration
	start bool
	key   string
	dur   time.Duration
}

// gridRecorder is an obs.Sink keeping the runner's cell events.
type gridRecorder struct {
	t0     time.Time
	mu     sync.Mutex
	events []cellEvent
	hits   int
}

func (g *gridRecorder) Emit(e obs.Event) {
	at := time.Since(g.t0)
	g.mu.Lock()
	defer g.mu.Unlock()
	switch e.Kind {
	case obs.KindCellStart:
		g.events = append(g.events, cellEvent{at: at, start: true, key: e.Key})
	case obs.KindCellFinish:
		g.events = append(g.events, cellEvent{at: at, key: e.Key, dur: e.Dur})
	case obs.KindCacheHit:
		g.hits++
	}
}

// traceGrid runs the grid-fig3 grid in-process through experiment.Runner
// with tdfmbench's settings and a recording Sink, and returns the CSV's
// sha256, which must equal the tdfmbench binary's.
func traceGrid(seed uint64, out map[string]float64) (string, error) {
	workers := runtime.GOMAXPROCS(0)
	r := experiment.NewRunner(datagen.ScaleTiny, seed, 1)
	r.Workers = workers
	r.EpochOverride = gridEpochs
	rec := &gridRecorder{t0: time.Now()}
	r.Sink = rec
	f, err := r.Figure3(faultinject.Mislabel, nil, nil)
	if err != nil {
		return "", err
	}
	wall := time.Since(rec.t0)
	var buf bytes.Buffer
	if err := f.Table().WriteCSV(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())

	for _, t := range experiment.TechniquesFor(faultinject.Mislabel) {
		out["experiment.cell_s."+t] = 0
	}
	for _, a := range experiment.FigureModels() {
		out["experiment.cell_s."+a] = 0
	}
	// Events are stamped before the recorder's lock, so restore time order.
	sort.SliceStable(rec.events, func(i, j int) bool { return rec.events[i].at < rec.events[j].at })
	cells, running := 0, 0
	var busy, tail, last time.Duration
	for _, e := range rec.events {
		busy += time.Duration(running) * (e.at - last)
		if running < workers {
			tail += e.at - last
		}
		last = e.at
		if e.start {
			running++
			continue
		}
		running--
		cells++
		// Cell keys read "dataset|technique|arch|faults|rep…".
		if k := strings.Split(e.key, "|"); len(k) > 2 {
			out["experiment.cell_s."+k[1]] += e.dur.Seconds()
			if _, ok := out["experiment.cell_s."+k[2]]; ok {
				out["experiment.cell_s."+k[2]] += e.dur.Seconds()
			}
		}
	}
	tail += wall - last
	out["experiment.cells"] = float64(cells)
	out["experiment.cache_hits"] = float64(rec.hits)
	out["experiment.pool_busy_share"] = busy.Seconds() / (float64(workers) * wall.Seconds())
	out["experiment.tail_s"] = tail.Seconds()
	return hex.EncodeToString(sum[:]), nil
}
