package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tdfm/internal/core"
	"tdfm/internal/obs"
	"tdfm/internal/registry"
	"tdfm/internal/serve"
	"tdfm/internal/tensor"
)

const (
	// traceLone is the lone-request time, split into alternating traced
	// and untraced slices so the machine's drift hits both sides alike.
	traceLone   = 4 * time.Second
	traceSlices = 8
	// traceBulk is the traced bulk-request time.
	traceBulk = 2 * time.Second
	// keepSpans is how many requests per traffic class keep their spans
	// in the result file; every request feeds the metrics.
	keepSpans = 20
)

// span is one timed interval of a traced request. Times are nanoseconds
// since the traced run started; Parent names the enclosing span.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Req     int    `json:"req"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type interval [2]int64

func (iv interval) dur() int64 { return iv[1] - iv[0] }

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c[0], c[1] = max(c[0], parent[0]), min(c[1], parent[1])
		if c[1] > c[0] {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i][0] < cs[j][0] })
	covered, end := int64(0), parent[0]
	for _, c := range cs {
		if c[1] <= end {
			continue
		}
		covered += c[1] - max(c[0], end)
		end = c[1]
	}
	return parent.dur() - covered
}

// reqTrace holds one request's spans. Members write their own slot from
// their own goroutines, so slots are guarded.
type reqTrace struct {
	id               int
	handler, predict interval
	mu               sync.Mutex
	members          []interval
}

// tracer records request spans from outside the serving code: timing
// middleware around Handler(), a recording obs.Sink for the req-admit and
// req-done events, and a timing wrapper around every member classifier.
// With one connection exactly one request is in flight, so every span
// recorded while it runs belongs to it.
type tracer struct {
	t0      time.Time
	members int
	seq     int
	cur     atomic.Pointer[reqTrace]
	mu      sync.Mutex
	done    []*reqTrace
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// wrap is the timing middleware.
func (tr *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr.mu.Lock()
		tr.seq++
		rt := &reqTrace{id: tr.seq, members: make([]interval, tr.members)}
		tr.mu.Unlock()
		tr.cur.Store(rt)
		rt.handler[0] = tr.now()
		h.ServeHTTP(w, r)
		rt.handler[1] = tr.now()
		tr.cur.Store(nil)
		tr.mu.Lock()
		tr.done = append(tr.done, rt)
		tr.mu.Unlock()
	})
}

// Emit implements obs.Sink: req-admit and req-done bound the predict span.
func (tr *tracer) Emit(e obs.Event) {
	rt := tr.cur.Load()
	if rt == nil {
		return
	}
	switch e.Kind {
	case obs.KindReqAdmit:
		rt.predict[0] = tr.now()
	case obs.KindReqDone:
		rt.predict[1] = tr.now()
	}
}

// take returns and clears the finished requests.
func (tr *tracer) take() []*reqTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := tr.done
	tr.done = nil
	return out
}

// timedMember is a core.Classifier that times its member's forward pass.
type timedMember struct {
	core.Classifier
	idx int
	tr  *tracer
}

func (m *timedMember) PredictProbs(x *tensor.Tensor) *tensor.Tensor {
	rt := m.tr.cur.Load()
	start := m.tr.now()
	p := m.Classifier.PredictProbs(x)
	if rt != nil {
		end := m.tr.now()
		rt.mu.Lock()
		rt.members[m.idx] = interval{start, end}
		rt.mu.Unlock()
	}
	return p
}

// stages breaks a class of traced requests down into mean stage times,
// which add up: handler = http + fanout + forward_crit per request.
func stages(prefix string, names []string, reqs []*reqTrace, out map[string]float64) (spans []span) {
	var handler, predict, httpSelf, fanout, crit, memberSum float64
	member := make([]float64, len(names))
	for k, rt := range reqs {
		// A member that missed its deadline may still be writing its slot.
		rt.mu.Lock()
		members := append([]interval(nil), rt.members...)
		rt.mu.Unlock()
		fwd := members[0]
		for _, m := range members[1:] {
			fwd[0], fwd[1] = min(fwd[0], m[0]), max(fwd[1], m[1])
		}
		handler += float64(rt.handler.dur())
		predict += float64(rt.predict.dur())
		httpSelf += float64(selfTime(rt.handler, []interval{rt.predict}))
		fanout += float64(selfTime(rt.predict, []interval{fwd}))
		crit += float64(fwd.dur())
		for i, m := range members {
			member[i] += float64(m.dur())
			memberSum += float64(m.dur())
		}
		if k < keepSpans {
			spans = append(spans,
				span{Name: prefix + ".handler", Req: rt.id, StartNS: rt.handler[0], EndNS: rt.handler[1]},
				span{Name: prefix + ".predict", Parent: prefix + ".handler", Req: rt.id, StartNS: rt.predict[0], EndNS: rt.predict[1]},
				span{Name: prefix + ".forward", Parent: prefix + ".predict", Req: rt.id, StartNS: fwd[0], EndNS: fwd[1]})
			for i, m := range members {
				spans = append(spans, span{Name: prefix + ".member." + names[i], Parent: prefix + ".forward",
					Req: rt.id, StartNS: m[0], EndNS: m[1]})
			}
		}
	}
	n := float64(len(reqs)) * float64(time.Millisecond)
	out[prefix+".serve.handler_ms"] = handler / n
	out[prefix+".serve.predict_ms"] = predict / n
	out[prefix+".serve.http_ms"] = httpSelf / n
	out[prefix+".serve.fanout_ms"] = fanout / n
	out[prefix+".serve.forward_crit_ms"] = crit / n
	out[prefix+".serve.parallelism"] = memberSum / crit
	for i, name := range names {
		out[prefix+".serve.member_ms."+name] = member[i] / n
	}
	return spans
}

// traceResult is a traced run: the per-layer metrics, the checks behind
// them, and a sample of the spans.
type traceResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// LoneStageSum is (http + fanout + forward_crit) / handler for lone
	// requests; the stages partition the handler, so it should be 1.
	LoneStageSum float64 `json:"lone_stage_sum_over_handler"`
	// TracedP50MS and UntracedP50MS are the client-side lone latencies
	// whose difference is lone.trace.overhead_ms.
	TracedP50MS   float64        `json:"lone_traced_p50_ms"`
	UntracedP50MS float64        `json:"lone_untraced_p50_ms"`
	Requests      map[string]int `json:"requests"`
	GridSHA256    string         `json:"grid_csv_sha256"`
	SpanCount     int            `json:"span_count"`
	Spans         []span         `json:"spans"`
}

// listen serves h on an ephemeral loopback port until the returned stop
// function is called; stop returns once the server has shut down.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}, nil
}

// runTrace is the traced run. It publishes the ensemble with the real
// binary, then works in-process through public functions only:
// registry.Open → serve.Split → serve.New with default Options plus a
// recording Sink, timed members and timed middleware, driven over
// loopback with one connection; then the nn/tensor/opt/loss probes and
// an in-process experiment.Runner with the grid-fig3 settings.
func runTrace(t tools, root, dir string, seed uint64) (*traceResult, error) {
	log, err := os.Create(filepath.Join(dir, "sut.log"))
	if err != nil {
		return nil, err
	}
	defer log.Close()
	digests, err := loadGridDigests(root)
	if err != nil {
		return nil, err
	}
	reg := filepath.Join(dir, "registry")
	if err := publish(t, reg, seed, log); err != nil {
		return nil, err
	}
	res := &traceResult{Metrics: map[string]float64{}, Requests: map[string]int{}}
	tr := &tracer{t0: time.Now()}

	var opens []float64
	for range 5 {
		start := time.Now()
		if _, _, err := registry.Open(reg, 0); err != nil {
			return nil, err
		}
		opens = append(opens, ms(time.Since(start)))
	}
	res.Metrics["registry.open_ms"] = median(opens)

	clf, man, err := registry.Open(reg, 0)
	if err != nil {
		return nil, err
	}
	members := serve.Split(clf, man.Members)
	tr.members = len(members)
	for i := range members {
		members[i].Clf = &timedMember{Classifier: members[i].Clf, idx: i, tr: tr}
	}
	traced, err := serve.New(members, man.Classes, serve.Options{Input: man.Input, Sink: tr})
	if err != nil {
		return nil, err
	}
	defer traced.Drain()
	plainClf, _, err := registry.Open(reg, 0)
	if err != nil {
		return nil, err
	}
	plain, err := serve.New(serve.Split(plainClf, man.Members), man.Classes, serve.Options{Input: man.Input})
	if err != nil {
		return nil, err
	}
	defer plain.Drain()
	tracedURL, stopT, err := listen(tr.wrap(traced.Handler()))
	if err != nil {
		return nil, err
	}
	defer stopT()
	plainURL, stopP, err := listen(plain.Handler())
	if err != nil {
		return nil, err
	}
	defer stopP()

	x, err := testSet(seed)
	if err != nil {
		return nil, err
	}
	offline := plainClf.Predict(x)
	targetFor := func(url string, rows int) (*target, error) {
		bodies, want, err := encodeBodies(x, rows, offline)
		if err != nil {
			return nil, err
		}
		return &target{client: newClient(1), url: url + "/predict", bodies: bodies, want: want}, nil
	}
	count := func(class string, rep *loadReport) []float64 {
		lat := make([]float64, 0, len(rep.samples))
		for _, s := range rep.samples {
			lat = append(lat, s.latMS)
			res.Attempted++
			if !s.ok {
				res.Failed++
			}
		}
		res.Requests[class] += len(rep.samples)
		if rep.err != nil && res.Error == "" {
			res.Error = rep.err.Error()
		}
		return lat
	}
	loneT, err := targetFor(tracedURL, 1)
	if err != nil {
		return nil, err
	}
	loneP, err := targetFor(plainURL, 1)
	if err != nil {
		return nil, err
	}
	bulkT, err := targetFor(tracedURL, bulkRows)
	if err != nil {
		return nil, err
	}
	for _, tg := range []*target{loneT, loneP, bulkT} {
		defer tg.client.CloseIdleConnections()
	}

	var next atomic.Int64
	closedLoop(loneP, 1, time.Second/2, &next)
	closedLoop(loneT, 1, time.Second/2, &next)
	tr.take()
	pool0 := tensor.Stats()
	var tracedLat, plainLat []float64
	for i := range traceSlices {
		d := traceLone / traceSlices
		if i%2 == 0 {
			plainLat = append(plainLat, count("lone_untraced", closedLoop(loneP, 1, d, &next))...)
		} else {
			tracedLat = append(tracedLat, count("lone", closedLoop(loneT, 1, d, &next))...)
		}
	}
	lone := tr.take()
	count("bulk", closedLoop(bulkT, 1, traceBulk, &next))
	bulk := tr.take()
	pool1 := tensor.Stats()

	res.Spans = append(stages("lone", man.Members, lone, res.Metrics),
		stages("bulk", man.Members, bulk, res.Metrics)...)
	res.SpanCount = len(lone)*(3+len(members)) + len(bulk)*(3+len(members))
	m := res.Metrics
	res.LoneStageSum = (m["lone.serve.http_ms"] + m["lone.serve.fanout_ms"] + m["lone.serve.forward_crit_ms"]) /
		m["lone.serve.handler_ms"]
	res.TracedP50MS, res.UntracedP50MS = percentile(tracedLat, 50), percentile(plainLat, 50)
	m["lone.trace.overhead_ms"] = res.TracedP50MS - res.UntracedP50MS
	if hits, misses := pool1.Hits-pool0.Hits, pool1.Misses-pool0.Misses; hits+misses > 0 {
		m["tensor.pool_hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	if err := probeLayers(seed, m); err != nil {
		return nil, err
	}
	sha, err := traceGrid(seed, m)
	if err != nil {
		return nil, err
	}
	res.GridSHA256 = sha
	res.Attempted += fig3Rows
	failed, why := digests.failures(seed, sha, fig3Rows, 0)
	res.Failed += failed
	if why != "" && res.Error == "" {
		res.Error = "in-process " + why
	}
	res.Correct = res.Failed == 0
	return res, nil
}
