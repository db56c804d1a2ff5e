package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestExpandPatterns expands a tree pattern from this package's
// directory: the walk must find package dirs, skip testdata, and
// dedupe repeats.
func TestExpandPatterns(t *testing.T) {
	dirs, err := expandPatterns([]string{"../../internal/...", "../../internal/lint", "../.."})
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Clean("../../internal/lint")
	found := false
	for _, d := range dirs {
		if d == want {
			found = true
		}
		if strings.Contains(d, "testdata") {
			t.Errorf("testdata directory not skipped: %s", d)
		}
	}
	if !found {
		t.Fatalf("expanded dirs missing %s: %v", want, dirs)
	}
	seen := make(map[string]bool)
	for _, d := range dirs {
		if seen[d] {
			t.Errorf("duplicate dir %s", d)
		}
		seen[d] = true
	}
}

// TestRunFindsSeededViolations runs the real CLI entry point over the
// nodeterminism golden package and expects findings and exit code 1.
func TestRunFindsSeededViolations(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"../../internal/lint/testdata/src/nodeterminism"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr: %s)", code, errOut.String())
	}
	for _, want := range []string{"import of math/rand", "time.Now", "bare go statement"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestGuardedPackagesStayDocumented runs the pass suite, docs included,
// over the packages whose godoc the repository guarantees, so `go test`
// fails on a doc regression even when `make lint` is bypassed.
func TestGuardedPackagesStayDocumented(t *testing.T) {
	var out, errOut strings.Builder
	dirs := []string{"../../internal/obs", "../../internal/parallel", "../../internal/experiment"}
	if code := run(dirs, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d on the guarded packages:\n%s%s", code, out.String(), errOut.String())
	}
}

// TestRunList prints the pass catalog.
func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	for _, pass := range []string{"nodeterminism", "maporder", "errwrap", "paniccontract", "docs"} {
		if !strings.Contains(out.String(), pass) {
			t.Errorf("-list output missing %q:\n%s", pass, out.String())
		}
	}
}

// TestRunUsage exits 2 without arguments.
func TestRunUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestRunJSON checks the -json wire format: one object per line,
// active findings with position fields, suppressed findings carrying
// the directive's justification, and the exit code counting only
// active findings.
func TestRunJSON(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-json", "../../internal/lint/testdata/src/poolown"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr: %s)", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no JSON output")
	}
	sawPoolown := false
	for _, line := range lines {
		var f finding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line is not valid JSON: %q: %v", line, err)
		}
		if f.File == "" || f.Line == 0 || f.Pass == "" || f.Message == "" {
			t.Errorf("incomplete finding: %q", line)
		}
		if f.Pass == "poolown" {
			sawPoolown = true
		}
	}
	if !sawPoolown {
		t.Errorf("no poolown finding in JSON output:\n%s", out.String())
	}
}

// TestRunJSONSuppressed pins that suppressed findings appear in -json
// output with their justification, and do not affect the exit code.
func TestRunJSONSuppressed(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-json", "../../internal/registry"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, want 0 — suppressed findings must not gate (stderr: %s)", code, errOut.String())
	}
	sawSuppressed := false
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if line == "" {
			continue
		}
		var f finding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line is not valid JSON: %q: %v", line, err)
		}
		if f.SuppressedBy != "" {
			sawSuppressed = true
		}
	}
	if !sawSuppressed {
		t.Errorf("expected at least one suppressed finding with its justification:\n%s", out.String())
	}
}
