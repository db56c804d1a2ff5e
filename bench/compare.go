package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// Verdicts of a comparison.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a claimed gain may rest on.
const minPairs = 10

// comparison is one workload × metric comparison.
type comparison struct {
	ParentMedian, ParentQ1, ParentQ3 float64
	ChangeMedian, ChangeQ1, ChangeQ3 float64
	Won, Pairs                       int
	Verdict                          string
}

// compareMetric applies the decision rule to one metric's runs:
//
//   - regressed: the change's median is worse than the parent's by more
//     than bound (a share of the parent's median);
//   - otherwise, when the parent's own spread (quartile distance over its
//     median) is wider than bound: improved if every change run beats
//     every parent run, else unresolved;
//   - improved: at least minPairs pairs, the change wins at least nine
//     tenths of them (ties count for neither), and the medians differ by
//     more than the parent's quartile distance;
//   - unresolved: better by more than bound without meeting that rule;
//   - unchanged otherwise.
//
// Pair i is parent[i] against change[i].
func compareMetric(parent, change []float64, bound float64, higherBetter bool) comparison {
	c := comparison{ParentMedian: median(parent), ChangeMedian: median(change)}
	c.ParentQ1, c.ParentQ3 = quartiles(parent)
	c.ChangeQ1, c.ChangeQ3 = quartiles(change)
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	c.Pairs = min(len(parent), len(change))
	for i := range c.Pairs {
		if better(change[i], parent[i]) {
			c.Won++
		}
	}
	base := math.Abs(c.ParentMedian)
	if base == 0 {
		base = 1
	}
	worse := (c.ChangeMedian - c.ParentMedian) / base
	if higherBetter {
		worse = -worse
	}
	iqr := c.ParentQ3 - c.ParentQ1
	allBetter := len(parent) > 0 && len(change) > 0 &&
		better(worstOf(change, higherBetter), bestOf(parent, higherBetter))
	switch {
	case worse > bound:
		c.Verdict = regressed
	case iqr/base > bound:
		c.Verdict = unresolved
		if allBetter {
			c.Verdict = improved
		}
	case worse < 0 && c.Pairs >= minPairs && c.Won*10 >= 9*c.Pairs && math.Abs(c.ChangeMedian-c.ParentMedian) > iqr:
		c.Verdict = improved
	case -worse > bound:
		c.Verdict = unresolved
	default:
		c.Verdict = unchanged
	}
	return c
}

func bestOf(xs []float64, higherBetter bool) float64 {
	if higherBetter {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

func worstOf(xs []float64, higherBetter bool) float64 { return bestOf(xs, !higherBetter) }

// side gathers one side's runs: per workload, every metric's values in
// file order, the failure totals and how many runs were marked invalid.
// An invalid run's values are NaN: it is neither fast nor slow.
type side struct {
	order     []string
	values    map[string]map[string][]float64
	attempted map[string]int
	failed    map[string]int
	invalid   map[string]int
}

func gather(paths []string) (*side, error) {
	s := &side{values: map[string]map[string][]float64{}, attempted: map[string]int{},
		failed: map[string]int{}, invalid: map[string]int{}}
	for _, p := range paths {
		f, err := readResultFile(p)
		if err != nil {
			return nil, err
		}
		for _, r := range f.Runs {
			if s.values[r.Workload] == nil {
				s.values[r.Workload] = map[string][]float64{}
				s.order = append(s.order, r.Workload)
			}
			if r.Invalid != "" {
				s.invalid[r.Workload]++
			}
			for name, v := range r.Metrics {
				if r.Invalid != "" {
					v = math.NaN()
				}
				s.values[r.Workload][name] = append(s.values[r.Workload][name], v)
			}
			s.attempted[r.Workload] += r.Attempted
			s.failed[r.Workload] += r.Failed
		}
	}
	return s, nil
}

// validPairs drops the values of invalid runs (NaN) from a metric's parent
// and change values. Where both sides have a run i, the pair goes as a
// whole, so the runs left stay paired.
func validPairs(parent, change []float64) (p, c []float64) {
	for i := range max(len(parent), len(change)) {
		pok := i < len(parent) && !math.IsNaN(parent[i])
		cok := i < len(change) && !math.IsNaN(change[i])
		if i < len(parent) && i < len(change) && !(pok && cok) {
			continue
		}
		if pok {
			p = append(p, parent[i])
		}
		if cok {
			c = append(c, change[i])
		}
	}
	return p, c
}

// runCompare compares parent result files against change result files
// (args: parent... -- change...) with the bounds in BENCHMARK.json, and
// reports whether the change regressed anything.
func runCompare(root string, args []string, w io.Writer) error {
	i := slices.Index(args, "--")
	if i <= 0 || i == len(args)-1 {
		return fmt.Errorf("usage: -compare parent.json... -- change.json...")
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	parent, err := gather(args[:i])
	if err != nil {
		return err
	}
	change, err := gather(args[i+1:])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-11s %-15s %-34s %-34s %-9s %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "won/pairs", "verdict")
	bad := 0
	for _, wl := range parent.order {
		if change.values[wl] == nil {
			fmt.Fprintf(w, "%-11s missing from the change's results\n", wl)
			bad++
			continue
		}
		if n := parent.invalid[wl] + change.invalid[wl]; n > 0 {
			fmt.Fprintf(w, "%-11s %d run(s) marked invalid (generator lag) left out of every verdict\n", wl, n)
		}
		for _, d := range endToEnd {
			bound, higher, ok := spec.bound(d.Name)
			if !ok {
				return fmt.Errorf("BENCHMARK.json has no bound for %s", d.Name)
			}
			if len(parent.values[wl][d.Name]) == 0 || len(change.values[wl][d.Name]) == 0 {
				continue
			}
			p, c := validPairs(parent.values[wl][d.Name], change.values[wl][d.Name])
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-11s %-15s %-80s %s\n", wl, d.Name, "no valid runs on one side", unresolved)
				continue
			}
			cmp := compareMetric(p, c, bound, higher)
			fmt.Fprintf(w, "%-11s %-15s %-34s %-34s %4d/%-4d %s\n", wl, d.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", cmp.ParentMedian, cmp.ParentQ1, cmp.ParentQ3, d.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", cmp.ChangeMedian, cmp.ChangeQ1, cmp.ChangeQ3, d.Unit),
				cmp.Won, cmp.Pairs, cmp.Verdict)
			if cmp.Verdict == regressed {
				bad++
			}
		}
		pr := failRatio(parent.failed[wl], parent.attempted[wl])
		cr := failRatio(change.failed[wl], change.attempted[wl])
		verdict := unchanged
		if cr > pr {
			verdict = regressed
			bad++
		}
		fmt.Fprintf(w, "%-11s %-15s %-34.6g %-34.6g %-9s %s\n", wl, "fail_ratio", pr, cr, "", verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d regression(s)", bad)
	}
	return nil
}

func failRatio(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
