package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func toSpecs(defs []metricDef) []metricSpec {
	out := make([]metricSpec, len(defs))
	for i, d := range defs {
		out[i] = metricSpec{Name: d.Name, Unit: d.Unit, Better: d.Better}
	}
	return out
}

// TestBenchmarkJSONSchema checks BENCHMARK.json against the benchmark
// contract and against this program: every workload and metric it names
// exists here, with the same unit and direction, and nothing here is
// missing from it.
func TestBenchmarkJSONSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Errorf("top-level keys %v, want exactly %v", keys, want)
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}

	if n := len(spec.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, want 1..32", n)
	}
	for _, c := range spec.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || slices.Contains(strings.Split(c, "/"), "..") {
			t.Errorf("command string %q is too long, absolute or leaves the repository", c)
		}
	}
	if n := len(spec.Paths); n < 1 || n > 16 {
		t.Errorf("paths has %d entries, want 1..16", n)
	}
	for _, p := range spec.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || slices.Contains(strings.Split(p, "/"), "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
		if fi, err := os.Stat("../" + p); err != nil || !fi.IsDir() {
			t.Errorf("path %q is not a directory: %v", p, err)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}

	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	var names, code []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !slices.Equal(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, code)
	}

	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	var setupBound, maxBound float64
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be present with the largest bound (%v, largest %v)", setupBound, maxBound)
	}
	got := make([]metricSpec, len(spec.EndToEnd))
	for i, m := range spec.EndToEnd {
		got[i] = metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better}
	}
	if want := toSpecs(endToEnd); !slices.Equal(got, want) {
		t.Errorf("end_to_end names/units/directions %+v, the benchmark reports %+v", got, want)
	}

	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range spec.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if want := toSpecs(layerMetrics()); !slices.Equal(spec.PerLayer, want) {
		js, _ := json.Marshal(want)
		t.Errorf("per_layer differs from the traced run's metrics; it should be:\n%s", js)
	}

	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: malformed unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("workload name %q is malformed", n)
		}
	}
}
