package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestGridDigestMismatchFailsEveryRow checks the grid's correctness gate:
// a CSV whose sha256 differs from the recorded one is wrong in every row,
// so the run's failed count and compare's failure ratio both see it.
func TestGridDigestMismatchFailsEveryRow(t *testing.T) {
	d := gridDigests{SHA256: map[string]string{"1": "aaaa"}}
	if failed, why := d.failures(1, "aaaa", fig3Rows, 0); failed != 0 || why != "" {
		t.Errorf("matching digest: failed %d, %q; want 0, \"\"", failed, why)
	}
	if failed, why := d.failures(1, "bbbb", fig3Rows, 2); failed != fig3Rows || !strings.Contains(why, "bbbb") {
		t.Errorf("mismatched digest: failed %d, %q; want %d and the digest named", failed, why, fig3Rows)
	}
	if failed, why := d.failures(7, "bbbb", fig3Rows, 2); failed != 2 || why != "" {
		t.Errorf("no recorded digest: failed %d, %q; want the rows' own 2", failed, why)
	}
}

// TestIncorrectSummaryFailsTheCommand checks that a wrong answer both
// reads "correct": false in the summary line and returns an error, which
// makes the command exit nonzero.
func TestIncorrectSummaryFailsTheCommand(t *testing.T) {
	defs := []metricDef{{Name: "p50_ms", Unit: "ms"}}
	for _, c := range []struct {
		name    string
		correct bool
		value   float64
		wantOK  bool
	}{
		{"correct run", true, 1.5, true},
		{"wrong prediction", false, 1.5, false},
		{"metric not finite", true, math.NaN(), false},
	} {
		var out strings.Builder
		err := printSummary(&out, c.correct, 10, 1, map[string]float64{"p50_ms": c.value}, defs)
		var line summaryLine
		if jerr := json.Unmarshal([]byte(out.String()), &line); jerr != nil {
			t.Fatalf("%s: summary line %q: %v", c.name, out.String(), jerr)
		}
		if line.Correct != c.wantOK || (err == nil) != c.wantOK {
			t.Errorf("%s: correct=%v err=%v, want correct=%v and an error iff incorrect", c.name, line.Correct, err, c.wantOK)
		}
	}
}

func TestTrainedTimeParsesProgressLines(t *testing.T) {
	d, ok, err := trainedTime("trained gtsrblike|base|resnet50|clean|rep0|scale1|seed1|ep1      493ms")
	if err != nil || !ok || d != 493*time.Millisecond {
		t.Errorf("trained line: %v %v %v", d, ok, err)
	}
	if _, ok, err := trainedTime("progress: 3/67 cells, elapsed 2s"); ok || err != nil {
		t.Errorf("a status line is not a trained line: %v %v", ok, err)
	}
	if _, _, err := trainedTime("trained key soon"); err == nil {
		t.Error("a bad duration must be an error")
	}
}
