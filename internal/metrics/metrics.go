// Package metrics implements the reliability measures of the study:
// classification accuracy and the Accuracy Delta (AD) of §III-C, plus the
// summary statistics (mean, standard deviation, 95% confidence intervals)
// used for the paper's error bars.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Accuracy returns the fraction of predictions matching the labels.
// It panics if the slices differ in length and returns 0 for empty input.
func Accuracy(pred, labels []int) float64 {
	if len(pred) != len(labels) {
		panic(fmt.Sprintf("metrics: %d predictions vs %d labels", len(pred), len(labels)))
	}
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i := range pred {
		if pred[i] == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// AccuracyDelta is the paper's AD metric (§III-C): the proportion of test
// images misclassified by the faulty model out of all test images that the
// golden model classified correctly. Lower is better; a perfectly resilient
// model has AD 0. Images the golden model already misclassified are not
// counted, so AD isolates the damage attributable to the training-data
// faults.
//
// If the golden model classified nothing correctly the AD is defined as 0
// (there is no damage to measure). Panics when the prediction and label
// slices differ in length.
func AccuracyDelta(goldenPred, faultyPred, labels []int) float64 {
	if len(goldenPred) != len(labels) || len(faultyPred) != len(labels) {
		panic(fmt.Sprintf("metrics: prediction/label length mismatch %d/%d/%d",
			len(goldenPred), len(faultyPred), len(labels)))
	}
	goldenCorrect, damaged := 0, 0
	for i := range labels {
		if goldenPred[i] != labels[i] {
			continue
		}
		goldenCorrect++
		if faultyPred[i] != labels[i] {
			damaged++
		}
	}
	if goldenCorrect == 0 {
		return 0
	}
	return float64(damaged) / float64(goldenCorrect)
}

// ReverseDelta is the complementary measure the paper checks and finds
// insignificant (§III-C): the proportion of ALL test images that the golden
// model misclassified but the faulty model classifies correctly. It is
// normalized by the full test size — not by the (often tiny) count of
// golden mistakes — so it is directly comparable with DamageRate, the
// same-normalization forward measure. Panics when the prediction and
// label slices differ in length.
func ReverseDelta(goldenPred, faultyPred, labels []int) float64 {
	if len(goldenPred) != len(labels) || len(faultyPred) != len(labels) {
		panic("metrics: prediction/label length mismatch")
	}
	if len(labels) == 0 {
		return 0
	}
	recovered := 0
	for i := range labels {
		if goldenPred[i] != labels[i] && faultyPred[i] == labels[i] {
			recovered++
		}
	}
	return float64(recovered) / float64(len(labels))
}

// DamageRate is the forward counterpart of ReverseDelta with the same
// normalization: the proportion of ALL test images the golden model got
// right and the faulty model gets wrong. (AD normalizes the same numerator
// by the golden-correct count instead.) Panics when the prediction and
// label slices differ in length.
func DamageRate(goldenPred, faultyPred, labels []int) float64 {
	if len(goldenPred) != len(labels) || len(faultyPred) != len(labels) {
		panic("metrics: prediction/label length mismatch")
	}
	if len(labels) == 0 {
		return 0
	}
	damaged := 0
	for i := range labels {
		if goldenPred[i] == labels[i] && faultyPred[i] != labels[i] {
			damaged++
		}
	}
	return float64(damaged) / float64(len(labels))
}

// ConfusionCounts partitions the test set by (golden correct?, faulty
// correct?) for diagnostic reporting.
type ConfusionCounts struct {
	BothCorrect int
	OnlyGolden  int // golden right, faulty wrong: the AD numerator
	OnlyFaulty  int
	BothWrong   int
}

// Confusion computes the four-way partition.
func Confusion(goldenPred, faultyPred, labels []int) ConfusionCounts {
	var c ConfusionCounts
	for i := range labels {
		g := goldenPred[i] == labels[i]
		f := faultyPred[i] == labels[i]
		switch {
		case g && f:
			c.BothCorrect++
		case g && !f:
			c.OnlyGolden++
		case !g && f:
			c.OnlyFaulty++
		default:
			c.BothWrong++
		}
	}
	return c
}

// Summary holds the replication statistics of one experiment configuration.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation
	CI95   float64 // half-width of the 95% confidence interval
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes the replication statistics of a sample. The 95%
// confidence half-width uses Student's t critical value for small samples.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	sum := 0.0
	mn, mx := xs[0], xs[0]
	for _, v := range xs {
		sum += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	mean := sum / float64(n)
	varSum := 0.0
	for _, v := range xs {
		d := v - mean
		varSum += float64(d * d)
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(varSum / float64(n-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	median := sorted[n/2]
	if n%2 == 0 {
		median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	ci := 0.0
	if n > 1 {
		ci = tCritical95(n-1) * std / math.Sqrt(float64(n))
	}
	return Summary{N: n, Mean: mean, Std: std, CI95: ci, Min: mn, Max: mx, Median: median}
}

// tCritical95 returns the two-sided 95% Student's t critical value for the
// given degrees of freedom (table lookup with asymptote 1.96).
func tCritical95(df int) float64 {
	table := []float64{
		0, // df=0 unused
		12.706, 4.303, 3.182, 2.776, 2.571,
		2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131,
		2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060,
		2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// OverlapCI reports whether two summaries' 95% confidence intervals
// overlap — the statistical-similarity check the paper applies when
// comparing combined fault types (§IV-C).
func OverlapCI(a, b Summary) bool {
	aLo, aHi := a.Mean-a.CI95, a.Mean+a.CI95
	bLo, bHi := b.Mean-b.CI95, b.Mean+b.CI95
	return aLo <= bHi && bLo <= aHi
}

// PerClassAccuracy returns the accuracy restricted to each true class
// (recall per class). Classes absent from the labels report 0. Panics on
// a prediction/label length mismatch or a label outside [0, numClasses).
func PerClassAccuracy(pred, labels []int, numClasses int) []float64 {
	if len(pred) != len(labels) {
		panic(fmt.Sprintf("metrics: %d predictions vs %d labels", len(pred), len(labels)))
	}
	correct := make([]int, numClasses)
	total := make([]int, numClasses)
	for i, y := range labels {
		if y < 0 || y >= numClasses {
			panic(fmt.Sprintf("metrics: label %d out of [0,%d)", y, numClasses))
		}
		total[y]++
		if pred[i] == y {
			correct[y]++
		}
	}
	out := make([]float64, numClasses)
	for c := range out {
		if total[c] > 0 {
			out[c] = float64(correct[c]) / float64(total[c])
		}
	}
	return out
}

// ConfusionMatrix returns the numClasses×numClasses count matrix
// m[true][predicted]. Panics on a prediction/label length mismatch or a
// class outside [0, numClasses).
func ConfusionMatrix(pred, labels []int, numClasses int) [][]int {
	if len(pred) != len(labels) {
		panic(fmt.Sprintf("metrics: %d predictions vs %d labels", len(pred), len(labels)))
	}
	m := make([][]int, numClasses)
	for i := range m {
		m[i] = make([]int, numClasses)
	}
	for i, y := range labels {
		p := pred[i]
		if y < 0 || y >= numClasses || p < 0 || p >= numClasses {
			panic(fmt.Sprintf("metrics: class out of range (true %d, pred %d)", y, p))
		}
		m[y][p]++
	}
	return m
}
