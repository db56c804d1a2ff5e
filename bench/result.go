package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runResult is one workload run: its end-to-end metrics, its correctness
// verdict and the raw material behind each metric.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Setups holds every set-up time of the run; setup_s is their median.
	Setups []float64 `json:"setup_s_each"`
	Rounds []round   `json:"rounds,omitempty"`
	// Samples is the number of latency samples behind p50_ms and tail_ms,
	// TailPct the percentile tail_ms reports, and BeyondTail how many
	// samples lie past it.
	Samples    int     `json:"samples"`
	TailPct    float64 `json:"tail_percentile"`
	BeyondTail int     `json:"beyond_tail"`
	// Percentiles holds more nearest-rank latency percentiles, in ms,
	// keyed "p90", "p95", "p99", "p99.9".
	Percentiles map[string]float64 `json:"percentiles"`
	// GenLagP99MS is the open-loop generator's wake-up lag p99; a run
	// over maxGenLag is marked Invalid rather than slow, and compare
	// leaves it out of its verdicts.
	GenLagP99MS float64 `json:"gen_lag_p99_ms,omitempty"`
	Invalid     string  `json:"invalid,omitempty"`
	// PeakRSSMB is the system under test's peak resident set (rusage);
	// rss_mb is its mean over the recorded window.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// StealShare is the share of the machine's CPU time during the
	// recorded part of the run that the hypervisor gave to other guests;
	// a high value flags a run measured on a busy host.
	StealShare float64 `json:"steal_share"`
	GridSHA256 string  `json:"grid_csv_sha256,omitempty"`
}

// round is one recorded round of a run.
type round struct {
	Seconds     float64 `json:"seconds"`
	Requests    int     `json:"requests"`
	P50MS       float64 `json:"p50_ms"`
	RowsPerS    float64 `json:"rows_per_s"`
	CPUMSPerRow float64 `json:"cpu_ms_per_row"`
}

func newResult(workload string, seed uint64) *runResult {
	return &runResult{Workload: workload, Seed: seed, Metrics: map[string]float64{}}
}

// setTail records the pct-th percentile of the latencies lat as tail_ms,
// with the sample counts behind it.
func (r *runResult) setTail(lat []float64, pct float64) {
	v := percentile(lat, pct)
	r.Metrics["tail_ms"] = v
	r.Samples, r.TailPct, r.BeyondTail = len(lat), pct, beyond(lat, v)
	r.Percentiles = map[string]float64{}
	for _, p := range []float64{90, 95, 99, 99.9} {
		r.Percentiles[fmt.Sprintf("p%g", p)] = percentile(lat, p)
	}
}

// finite replaces the values in m that are not finite with -1 and
// reports whether every value was finite.
func finite(m map[string]float64) bool {
	ok := true
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k], ok = -1, false
		}
	}
	return ok
}

// sanitize replaces values that are not finite — a percentile or round
// dominated by failed requests, which count as +Inf — with -1, so the
// result always encodes as JSON, and marks the run incorrect if any was.
func (r *runResult) sanitize() {
	ok := finite(r.Metrics)
	ok = finite(r.Percentiles) && ok
	for i := range r.Rounds {
		if p := r.Rounds[i].P50MS; math.IsNaN(p) || math.IsInf(p, 0) {
			r.Rounds[i].P50MS, ok = -1, false
		}
	}
	r.Correct = r.Correct && ok
}

// envStamp records where and how a result was measured.
type envStamp struct {
	NProc         int     `json:"nproc"`
	SUTGOMAXPROCS int     `json:"sut_gomaxprocs"`
	GenGOMAXPROCS int     `json:"generator_gomaxprocs"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	GitHead       string  `json:"git_head,omitempty"`
	Seed          uint64  `json:"seed"`
	Seconds       int     `json:"seconds"`
	WarmupS       float64 `json:"warmup_s"`
	RoundS        float64 `json:"round_s"`
	Started       string  `json:"started"`
}

// stamp collects the environment stamp. The SUT runs with Go's default
// GOMAXPROCS, which is the CPU count.
func stamp(root string, seed uint64, seconds int) envStamp {
	e := envStamp{
		NProc:         runtime.NumCPU(),
		SUTGOMAXPROCS: runtime.NumCPU(),
		GenGOMAXPROCS: genProcs,
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		Seed:          seed,
		Seconds:       seconds,
		WarmupS:       warmup.Seconds(),
		RoundS:        roundLen.Seconds(),
		Started:       time.Now().UTC().Format(time.RFC3339),
	}
	// Only ask git when the checkout itself is a repository, so git never
	// searches directories above it.
	if _, err := os.Stat(root + "/.git"); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			e.GitHead = strings.TrimSpace(string(out))
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// resultFile is what -out writes: the environment stamp plus every run,
// and the traced run's layer metrics and spans when there was one.
type resultFile struct {
	Env   envStamp     `json:"env"`
	Runs  []*runResult `json:"runs,omitempty"`
	Trace *traceResult `json:"trace,omitempty"`
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// summaryLine is the one-line JSON summary printed last on stdout.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary writes the summary of a run for the given metric set.
// A metric that is missing or not finite makes the line incorrect, and
// is written as -1, so the line always encodes. It returns an error when
// the line it wrote is incorrect, so a wrong answer fails the command.
func printSummary(w io.Writer, correct bool, attempted, failed int, values map[string]float64, defs []metricDef) error {
	line := summaryLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			line.Correct = false
			v = -1
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", raw); err != nil {
		return err
	}
	if !line.Correct {
		return fmt.Errorf("run incorrect: %d of %d operations failed or were wrong, or a metric is missing or not finite", failed, attempted)
	}
	return nil
}

// printTable writes a human-readable table of runs to w.
func printTable(w io.Writer, runs []*runResult) {
	for _, r := range runs {
		fmt.Fprintf(w, "%s (seed %d): correct=%v attempted=%d failed=%d samples=%d tail=p%g beyond_tail=%d",
			r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed, r.Samples, r.TailPct, r.BeyondTail)
		fmt.Fprintf(w, " steal=%.1f%%", 100*r.StealShare)
		if r.GenLagP99MS > 0 {
			fmt.Fprintf(w, " gen_lag_p99=%.3fms", r.GenLagP99MS)
		}
		if r.Invalid != "" {
			fmt.Fprintf(w, " INVALID: %s", r.Invalid)
		}
		if r.Error != "" {
			fmt.Fprintf(w, " first error: %s", r.Error)
		}
		fmt.Fprintln(w)
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-16s %12.4f %s\n", n, r.Metrics[n], unitOf(n))
		}
	}
}
