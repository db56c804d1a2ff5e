package main

import (
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3}
	noisy := []float64{70, 130, 85, 115, 100, 60, 140, 95, 105, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		want           string
	}{
		{"same runs", steady, steady, false, unchanged},
		{"slower by more than the bound", steady, scaled(steady, 1.2), false, regressed},
		{"slower within the bound", steady, scaled(steady, 1.05), false, unchanged},
		{"faster in every pair, beyond the spread", steady, scaled(steady, 0.95), false, improved},
		{"faster beyond the bound, every pair", steady, scaled(steady, 0.8), false, improved},
		{"spread wider than the bound", noisy, scaled(noisy, 0.97), false, unresolved},
		{"wide spread but every change run better", noisy, scaled(steady, 0.5), false, improved},
		{"one pair within the bound", []float64{100}, []float64{95}, false, unchanged},
		{"one pair beyond the bound", []float64{100}, []float64{80}, false, unresolved},
		{"one pair, worse beyond the bound", []float64{100}, []float64{120}, false, regressed},
		{"higher-better metric dropped", steady, scaled(steady, 0.8), true, regressed},
		{"higher-better metric rose", steady, scaled(steady, 1.05), true, improved},
	} {
		got := compareMetric(c.parent, c.change, 0.1, c.higherBetter)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
}

func TestCompareWinsNeedNineTenths(t *testing.T) {
	parent := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	change := []float64{95, 95, 95, 95, 95, 95, 95, 95, 101, 101} // 8 of 10 pairs
	if got := compareMetric(parent, change, 0.1, false); got.Won != 8 || got.Verdict != unchanged {
		t.Errorf("8/10 pairs won must not claim a gain: %+v", got)
	}
}

// TestRunCompareFlagsRegressionAndFailures drives the command-line compare
// over result files: a higher failure ratio is a regression on its own.
func TestRunCompareFlagsRegressionAndFailures(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int) string {
		r := newResult("serve-lone", 1)
		for _, d := range endToEnd {
			r.Metrics[d.Name] = 10
		}
		r.Metrics["p50_ms"] = p50
		r.Attempted, r.Failed = 100, failed
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultFile{Runs: []*runResult{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", 2, 0), write("b.json", 2.02, 0)
	var out strings.Builder
	if err := runCompare(root, []string{a, "--", b}, &out); err != nil {
		t.Fatalf("equal runs reported %v:\n%s", err, out.String())
	}
	if strings.Contains(out.String(), regressed) || !strings.Contains(out.String(), unchanged) {
		t.Errorf("unexpected table:\n%s", out.String())
	}
	out.Reset()
	if err := runCompare(root, []string{a, "--", write("c.json", 2, 1)}, &out); err == nil {
		t.Errorf("a higher failure ratio must fail the compare:\n%s", out.String())
	}
	out.Reset()
	if err := runCompare(root, []string{a, "--", write("d.json", 4, 0)}, &out); err == nil {
		t.Errorf("a doubled p50 must fail the compare:\n%s", out.String())
	}
	if err := runCompare(root, []string{a, b}, &out); err == nil {
		t.Error("compare without -- must be a usage error")
	}
}

// TestRunCompareLeavesOutInvalidRuns checks that an open-loop run marked
// invalid counts as neither slow nor fast: its doubled latency must not
// read as a regression, and a side with no valid run is unresolved.
func TestRunCompareLeavesOutInvalidRuns(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, p50 float64, invalid string) string {
		r := newResult("serve-open", 1)
		for _, d := range endToEnd {
			r.Metrics[d.Name] = 10
		}
		r.Metrics["p50_ms"] = p50
		r.Attempted, r.Invalid = 100, invalid
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultFile{Runs: []*runResult{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", 2, ""), write("b.json", 2, "")
	slowInvalid := write("c.json", 4, "generator wake-up lag p99 9 ms")
	var out strings.Builder
	if err := runCompare(root, []string{a, "--", slowInvalid}, &out); err != nil {
		t.Fatalf("an invalid run counted as a regression: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1 run(s) marked invalid") || !strings.Contains(out.String(), unresolved) ||
		strings.Contains(out.String(), regressed) {
		t.Errorf("an all-invalid side must be reported unresolved:\n%s", out.String())
	}
	out.Reset()
	// The invalid pair goes as a whole; the valid pair decides.
	if err := runCompare(root, []string{a, b, "--", slowInvalid, b}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), unchanged) || strings.Contains(out.String(), unresolved) {
		t.Errorf("the valid pair must decide the verdicts:\n%s", out.String())
	}
}

func TestValidPairsDropsWholePairs(t *testing.T) {
	nan := math.NaN()
	p, c := validPairs([]float64{1, 2, nan, 4}, []float64{5, nan, 7})
	if !slices.Equal(p, []float64{1, 4}) || !slices.Equal(c, []float64{5}) {
		t.Errorf("validPairs = %v, %v; want [1 4], [5]", p, c)
	}
}
