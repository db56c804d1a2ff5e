package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"tdfm/internal/datagen"
	"tdfm/internal/registry"
	"tdfm/internal/serve"
	"tdfm/internal/tensor"
)

const (
	// setups is how many times a serve run publishes the ensemble and
	// boots the server; setup_s is their median.
	setups = 3
	// trainEpochs is the ensemble's training length for the fixture.
	trainEpochs = 2
	// warmup is load sent before recording, so buffer pools, the heap
	// and connections reach steady state first.
	warmup = 2 * time.Second
	// roundLen is the target length of one recorded round. Short rounds
	// give many per run, so a median over them shrugs off the few seconds
	// a busy neighbour on the host takes.
	roundLen = time.Second
	// serveTailPct is the percentile tail_ms reports for the serve
	// workloads, over all recorded requests: it leaves ≥15 samples beyond
	// it even for serve-bulk's ~300, and reads steadier on a shared host
	// than p99 does (each result also lists p90 to p99.9).
	serveTailPct = 95
	// genProcs is the load generator's GOMAXPROCS: one, so the generator
	// takes at most one of the machine's cores from the server.
	genProcs = 1
)

// shape is one serve workload's traffic.
type shape struct {
	rows  int     // rows per request
	conns int     // connections
	rate  float64 // Poisson arrivals per second; 0 means closed loop
}

// testSet returns the gtsrblike tiny test images for seed, the inputs
// every serve workload cycles through.
func testSet(seed uint64) (*tensor.Tensor, error) {
	_, test, err := datagen.Generate(datagen.Presets(datagen.ScaleTiny, seed)["gtsrblike"])
	if err != nil {
		return nil, err
	}
	return test.X, nil
}

// encodeBodies encodes, once and before any timing, one request body per
// distinct window of rows consecutive test images (cycling through the
// set), with the prediction each row must get.
func encodeBodies(x *tensor.Tensor, rows int, offline []int) (bodies [][]byte, want [][]int, err error) {
	n := x.Dim(0)
	for start := 0; ; start = (start + rows) % n {
		if start == 0 && len(bodies) > 0 {
			return bodies, want, nil
		}
		req := serve.PredictRequest{Instances: make([][]float64, rows)}
		w := make([]int, rows)
		for r := range rows {
			i := (start + r) % n
			req.Instances[r] = x.SliceRows(i, i+1).Data()
			w[r] = offline[i]
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, nil, err
		}
		bodies, want = append(bodies, b), append(want, w)
	}
}

// offlinePredict opens the published artifact in-process and predicts
// every test image: the answers each served reply must match.
func offlinePredict(reg string, x *tensor.Tensor) ([]int, error) {
	clf, _, err := registry.Open(reg, 0)
	if err != nil {
		return nil, err
	}
	return clf.Predict(x), nil
}

// publish trains the 5-member ensemble for seed and publishes it to the
// registry directory reg, exactly as a user would.
func publish(t tools, reg string, seed uint64, log *os.File) error {
	return runLogged(log, t.train, "-technique", "ens", "-dataset", "gtsrblike",
		"-epochs", strconv.Itoa(trainEpochs), "-seed", strconv.FormatUint(seed, 10), "-publish", reg)
}

// runServe runs one serve workload: set-up (publish and boot to healthy)
// setups times, the offline answers, warm-up, then recorded rounds for
// seconds in all.
func runServe(t tools, dir string, name string, sh shape, seed uint64, seconds int) (*runResult, error) {
	log, err := os.Create(filepath.Join(dir, "sut.log"))
	if err != nil {
		return nil, err
	}
	defer log.Close()

	res := newResult(name, seed)
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var reg string
	for i := range setups {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		reg = filepath.Join(dir, fmt.Sprintf("registry-%d", i))
		start := time.Now()
		if err := publish(t, reg, seed, log); err != nil {
			return nil, err
		}
		if srv, err = startServer(t.serve, reg, log); err != nil {
			return nil, err
		}
		res.Setups = append(res.Setups, time.Since(start).Seconds())
	}

	x, err := testSet(seed)
	if err != nil {
		return nil, err
	}
	offline, err := offlinePredict(reg, x)
	if err != nil {
		return nil, fmt.Errorf("offline predictions: %w", err)
	}
	bodies, want, err := encodeBodies(x, sh.rows, offline)
	if err != nil {
		return nil, err
	}
	tg := &target{client: newClient(sh.conns), url: srv.url + "/predict", bodies: bodies, want: want}
	defer tg.client.CloseIdleConnections()

	prev := runtime.GOMAXPROCS(genProcs)
	defer runtime.GOMAXPROCS(prev)
	rng := newRand(seed)
	var next atomic.Int64
	load := func(d time.Duration) (*loadReport, []float64) {
		if sh.rate > 0 {
			return openLoop(tg, sh.conns, arrivals(rng, sh.rate, d), &next)
		}
		return closedLoop(tg, sh.conns, d, &next), nil
	}
	if rep, _ := load(warmup); rep.err != nil {
		return nil, fmt.Errorf("warm-up: %w", rep.err)
	}

	rounds := max(1, int(time.Duration(seconds)*time.Second/roundLen))
	each := time.Duration(seconds) * time.Second / time.Duration(rounds)
	var all []float64
	var lags []float64
	pid := srv.cmd.Process.Pid
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(pid)
	for range rounds {
		start := time.Now()
		cpu0, err0 := procCPU(pid)
		rep, lag := load(each)
		wall := time.Since(start)
		cpu1, err1 := procCPU(pid)
		if err := errors.Join(err0, err1); err != nil {
			rss.meanMB()
			return nil, err
		}
		lags = append(lags, lag...)
		lat, okRows := make([]float64, 0, len(rep.samples)), 0
		for _, s := range rep.samples {
			lat = append(lat, s.latMS)
			res.Attempted++
			if s.ok {
				okRows += s.rows
			} else {
				res.Failed++
			}
		}
		all = append(all, lat...)
		if rep.err != nil && res.Error == "" {
			res.Error = rep.err.Error()
		}
		r := round{Seconds: wall.Seconds(), Requests: len(rep.samples), P50MS: percentile(lat, 50),
			RowsPerS: float64(okRows) / wall.Seconds()}
		if okRows > 0 {
			r.CPUMSPerRow = ms(cpu1-cpu0) / float64(okRows)
		}
		res.Rounds = append(res.Rounds, r)
	}
	res.Metrics["rss_mb"] = rss.meanMB()
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	res.StealShare = stealShare(host0, host1)
	res.PeakRSSMB = peakRSSMB(srv.stop())
	srv = nil

	res.Metrics["setup_s"] = median(res.Setups)
	res.Metrics["p50_ms"] = median(roundField(res.Rounds, func(r round) float64 { return r.P50MS }))
	res.setTail(all, serveTailPct)
	res.Metrics["rows_per_s"] = median(roundField(res.Rounds, func(r round) float64 { return r.RowsPerS }))
	res.Metrics["cpu_ms_per_row"] = median(roundField(res.Rounds, func(r round) float64 { return r.CPUMSPerRow }))
	if sh.rate > 0 {
		res.GenLagP99MS = percentile(lags, 99)
		res.Invalid = lagInvalid(lags)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func roundField(rs []round, f func(round) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}
