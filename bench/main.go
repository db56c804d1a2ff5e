// Command tdfmperf is the repository's end-to-end benchmark. It builds
// tdfmserve, trainmodel and tdfmbench from the tree and drives them from
// outside, as a user would, on four workloads:
//
//	serve-lone  closed loop, 1 connection, 1-row /predict requests
//	serve-open  open loop, Poisson arrivals at 150 req/s, 2 connections
//	serve-bulk  closed loop, 2 connections, 32-row requests
//	grid-fig3   the tiny fig3-mislabel grid through tdfmbench
//
// Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload serve-lone --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1 --out pass.json          # every workload
//	bash bench/run.sh --trace 1 --seed 1 --out trace.json
//	bash bench/run.sh --compare parent.json... -- change.json...
//
// A run prints its metrics by name and unit on stderr and, as the last
// line of stdout, one JSON object with correct, attempted, failed and
// metrics. --trace 1 reports the per-layer metrics of a traced run
// instead of the end-to-end ones. See bench/README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// bulkRows is the serve-bulk request size.
const bulkRows = 32

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []struct {
	name  string
	shape shape // zero for the grid
}{
	{"serve-lone", shape{rows: 1, conns: 1}},
	{"serve-open", shape{rows: 1, conns: 2, rate: 150}},
	{"serve-bulk", shape{rows: bulkRows, conns: 2}},
	{"grid-fig3", shape{}},
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tdfmperf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tdfmperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (serve-lone|serve-open|serve-bulk|grid-fig3); empty runs every workload")
		seed     = fs.Uint64("seed", 1, "seed for the inputs: the trained model, the test images and the arrival schedule")
		seconds  = fs.Int("seconds", 10, "recorded seconds per run, after set-up and warm-up")
		traceOn  = fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end workloads")
		out      = fs.String("out", "", "write the full result, with its environment stamp, to this JSON file")
		compare  = fs.Bool("compare", false, "compare result files: -compare parent.json... -- change.json...")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if *compare {
		return runCompare(root, fs.Args(), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceOn)
	}
	selected := -1
	for i, w := range workloads {
		if w.name == *workload {
			selected = i
		}
	}
	if *workload != "" && selected < 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "tdfmserve")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}

	t, err := buildTools(root)
	if err != nil {
		return err
	}
	tmpRoot := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	file := resultFile{Env: stamp(root, *seed, *seconds)}
	if *traceOn == 1 {
		tr, err := runTrace(t, root, dir, *seed)
		if err != nil {
			return err
		}
		tr.Correct = finite(tr.Metrics) && tr.Correct
		file.Trace = tr
		if *out != "" {
			if err := writeJSON(*out, file); err != nil {
				return err
			}
		}
		printTrace(stderr, tr)
		return printSummary(stdout, tr.Correct, tr.Attempted, tr.Failed, tr.Metrics, layerMetrics())
	}

	for i, w := range workloads {
		if selected >= 0 && i != selected {
			continue
		}
		wdir := filepath.Join(dir, w.name)
		if err := os.Mkdir(wdir, 0o755); err != nil {
			return err
		}
		var res *runResult
		if w.shape.rows == 0 {
			res, err = runGrid(t, root, wdir, *seed, *seconds)
		} else {
			res, err = runServe(t, wdir, w.name, w.shape, *seed, *seconds)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.sanitize()
		file.Runs = append(file.Runs, res)
		printTable(stderr, []*runResult{res})
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			return err
		}
	}
	correct, attempted, failed := true, 0, 0
	for _, r := range file.Runs {
		correct = correct && r.Correct
		attempted += r.Attempted
		failed += r.Failed
	}
	if selected >= 0 {
		return printSummary(stdout, correct, attempted, failed, file.Runs[0].Metrics, endToEnd)
	}
	if !correct {
		return fmt.Errorf("%d of %d operations failed or were wrong", failed, attempted)
	}
	return nil
}

// printTrace writes the traced run's metrics and checks to w.
func printTrace(w io.Writer, tr *traceResult) {
	fmt.Fprintf(w, "traced run: correct=%v attempted=%d failed=%d requests=%v spans=%d\n",
		tr.Correct, tr.Attempted, tr.Failed, tr.Requests, tr.SpanCount)
	if tr.Error != "" {
		fmt.Fprintf(w, "  first error: %s\n", tr.Error)
	}
	fmt.Fprintf(w, "  lone stages sum to %.4f of serve.handler_ms; lone p50 traced %.4f ms, untraced %.4f ms\n",
		tr.LoneStageSum, tr.TracedP50MS, tr.UntracedP50MS)
	for _, d := range layerMetrics() {
		fmt.Fprintf(w, "  %-38s %12.4f %s\n", d.Name, tr.Metrics[d.Name], d.Unit)
	}
}
