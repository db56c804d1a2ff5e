package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxGenLag is the generator wake-up lag p99 above which an open-loop
// run is marked invalid: past it the generator, not the server, is what
// delays requests, so the latencies no longer describe the server. On an
// idle two-core box the generator wakes 0.3 ms late at p99; with the
// server busy on both cores, the scheduler holds back a few percent of
// wake-ups by up to a time slice, and lag p99 reads 1.2–2.0 ms.
const maxGenLag = 2500 * time.Microsecond

// sample is one request's outcome. A failed request has latency +Inf, so
// it counts as missing every latency limit.
type sample struct {
	latMS float64
	rows  int
	ok    bool
}

// target is a /predict endpoint plus the pre-encoded request bodies the
// load cycles through, in order, and the predictions each must return.
type target struct {
	client *http.Client
	url    string
	bodies [][]byte
	want   [][]int // expected predictions per body, one per row
}

// newClient returns a keep-alive HTTP client that opens at most conns
// connections, so the load never uses more connections than asked for.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// rows is the number of rows in body i (modulo the body count).
func (t *target) rows(i int) int { return len(t.want[i%len(t.want)]) }

// send posts body i (modulo the body count) and checks every returned
// prediction against the offline answer. A transport error, a non-200
// reply or a wrong prediction is a failure.
func (t *target) send(i int) (ok bool, err error) {
	i %= len(t.bodies)
	resp, err := t.client.Post(t.url, "application/json", bytes.NewReader(t.bodies[i]))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var got struct {
		Predictions []int `json:"predictions"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		return false, fmt.Errorf("decoding reply: %w", err)
	}
	want := t.want[i]
	if len(got.Predictions) != len(want) {
		return false, fmt.Errorf("body %d: %d predictions, want %d", i, len(got.Predictions), len(want))
	}
	for r := range want {
		if got.Predictions[r] != want[r] {
			return false, fmt.Errorf("body %d row %d: predicted %d, offline %d", i, r, got.Predictions[r], want[r])
		}
	}
	return true, nil
}

// loadReport collects samples and the first failure seen.
type loadReport struct {
	mu      sync.Mutex
	samples []sample
	err     error
}

func (l *loadReport) add(s sample, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples = append(l.samples, s)
	if err != nil && l.err == nil {
		l.err = err
	}
}

// closedLoop keeps conns requests in flight for dur: each connection
// sends its next request only when the previous reply has arrived, so a
// slow server receives less load. next numbers the bodies across
// connections and across calls, so successive rounds keep cycling.
func closedLoop(t *target, conns int, dur time.Duration, next *atomic.Int64) *loadReport {
	rep := &loadReport{}
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				start := time.Now()
				ok, err := t.send(i)
				rep.add(newSample(time.Since(start), t.rows(i), ok), err)
			}
		}()
	}
	wg.Wait()
	return rep
}

// newRand returns the arrival-schedule generator for a seed.
func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x0b5e55ed)) }

// arrivals returns rate·dur arrival offsets within dur, drawn from rng, so
// the same seed gives the same schedule. Independent uniform offsets,
// sorted, are a Poisson process conditioned on its count: the gaps are
// exponential as for independent users, while every run offers exactly
// the same load.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	out := make([]time.Duration, int(rate*dur.Seconds()+0.5))
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(dur)))
	}
	slices.Sort(out)
	return out
}

// sleepUntil blocks the calling thread until t. It uses nanosleep, which
// wakes within tens of microseconds, where time.Sleep here wakes about
// half a millisecond late.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
			return
		}
	}
}

// openLoop sends one request at each scheduled offset, whether or not
// earlier ones have been answered, over at most conns connections. A
// request waits in a queue while every connection is busy, and its
// latency runs from the time it was due, not from when it was sent, so a
// stall also counts against every request scheduled behind it
// (coordinated omission cannot hide it). lags holds how late the
// generator itself woke for each arrival, in milliseconds.
func openLoop(t *target, conns int, schedule []time.Duration, next *atomic.Int64) (rep *loadReport, lags []float64) {
	type job struct {
		due time.Time
		i   int
	}
	rep = &loadReport{}
	jobs := make(chan job, len(schedule)) // sized to the number of sends
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ok, err := t.send(j.i)
				rep.add(newSample(time.Since(j.due), t.rows(j.i), ok), err)
			}
		}()
	}
	start := time.Now()
	lags = make([]float64, 0, len(schedule))
	for _, off := range schedule {
		due := start.Add(off)
		sleepUntil(due)
		lags = append(lags, ms(max(time.Since(due), 0)))
		jobs <- job{due: due, i: int(next.Add(1) - 1)}
	}
	close(jobs)
	wg.Wait()
	return rep, lags
}

func newSample(lat time.Duration, rows int, ok bool) sample {
	if !ok {
		return sample{latMS: math.Inf(1), rows: rows}
	}
	return sample{latMS: ms(lat), rows: rows, ok: true}
}

// lagInvalid reports why an open-loop run's generator lag makes it
// invalid, or "" when the generator kept to its schedule.
func lagInvalid(lags []float64) string {
	if p := percentile(lags, 99); p > ms(maxGenLag) {
		return fmt.Sprintf("generator wake-up lag p99 %.3f ms exceeds %.1f ms", p, ms(maxGenLag))
	}
	return ""
}
