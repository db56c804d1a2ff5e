package lint

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// sharedLoader amortizes source-importer work across the golden tests.
var sharedLoader = NewLoader()

// loadTestdata loads one golden package under testdata/src.
func loadTestdata(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := sharedLoader.Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("testdata package %s has type errors: %v", name, pkg.TypeErrors)
	}
	return pkg
}

// wantRe matches a want annotation: `want "substr"` expects a finding
// on the same line, `want@+2 "substr"` two lines below the comment.
var wantRe = regexp.MustCompile(`want(@[+-]\d+)?\s+"((?:[^"\\]|\\.)*)"`)

// parseWants extracts the expected findings (line → substrings) from
// every file of a testdata package directory.
func parseWants(t *testing.T, dir string) map[int][]string {
	t.Helper()
	wants := make(map[int][]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				target := i + 1
				if m[1] != "" {
					off, err := parseOffset(m[1][1:])
					if err != nil {
						t.Fatalf("%s:%d: bad want offset %q", e.Name(), i+1, m[1])
					}
					target += off
				}
				wants[target] = append(wants[target], m[2])
			}
		}
	}
	return wants
}

// parseOffset parses the "+2"/"-1" suffix of a want annotation.
func parseOffset(s string) (int, error) {
	neg := strings.HasPrefix(s, "-")
	s = strings.TrimLeft(s, "+-")
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, os.ErrInvalid
		}
		n = n*10 + int(r-'0')
	}
	if neg {
		n = -n
	}
	return n, nil
}

// checkGolden compares findings against the package's want
// annotations: every finding must be wanted on its line, every want
// must be matched by a finding.
func checkGolden(t *testing.T, dir string, findings []Finding) {
	t.Helper()
	wants := parseWants(t, dir)
	for _, f := range findings {
		matched := false
		rest := wants[f.Pos.Line][:0:0]
		for _, w := range wants[f.Pos.Line] {
			if !matched && strings.Contains(f.Message, w) {
				matched = true
				continue
			}
			rest = append(rest, w)
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		wants[f.Pos.Line] = rest
	}
	for line, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s: line %d: expected finding matching %q, got none", dir, line, w)
		}
	}
}

// TestGoldenPasses runs each pass over its seeded-violation package
// and checks every finding (and non-finding) against the `// want`
// annotations.
func TestGoldenPasses(t *testing.T) {
	cases := []struct {
		name string
		pass func(pkg *Package) Pass
	}{
		{"nodeterminism", func(*Package) Pass { return NewNoDeterminism() }},
		{"maporder", func(*Package) Pass { return NewMapOrder() }},
		{"errwrap", func(*Package) Pass { return NewErrWrap() }},
		{"paniccontract", func(pkg *Package) Pass {
			// The golden package stands in for a facade.
			return &PanicContract{Facades: []string{pkg.RelPath}}
		}},
		{"docs", func(*Package) Pass { return NewDocs() }},
		{"poolown", func(*Package) Pass { return NewPoolOwn() }},
		{"lockdiscipline", func(pkg *Package) Pass {
			// The golden package stands in for a hot-path package.
			return &LockDiscipline{BlockingScope: []string{pkg.RelPath}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := loadTestdata(t, tc.name)
			findings := Run([]*Package{pkg}, []Pass{tc.pass(pkg)})
			checkGolden(t, pkg.Dir, findings)
		})
	}
}

// TestDirectives runs the full pass suite over the directives golden
// package: valid suppressions silence their findings; unknown-pass,
// reason-less, and stale directives surface as findings themselves.
func TestDirectives(t *testing.T) {
	pkg := loadTestdata(t, "directives")
	passes := AllPasses()
	for i, p := range passes {
		if pc, ok := p.(*PanicContract); ok {
			pc.Facades = append(pc.Facades, pkg.RelPath)
			passes[i] = pc
		}
	}
	checkGolden(t, pkg.Dir, Run([]*Package{pkg}, passes))
}

// TestNoDeterminismAllowlist pins the sanctioned package set: the
// randomness/concurrency/observability layers and cmd/ binaries are
// exempt, everything else is not — and cmd/tdfmserve is denied back
// out of the cmd/ subtree, because its supervision and hot-swap timers
// must stay on chaos.Clock for the swap-chaos acceptance suite, as is
// internal/dist, whose lease deadlines and heartbeats the grid-chaos
// suite drives on a FakeClock.
func TestNoDeterminismAllowlist(t *testing.T) {
	p := NewNoDeterminism()
	for _, rel := range []string{"internal/xrand", "internal/obs", "internal/parallel", "internal/chaos", "cmd", "cmd/tdfmbench", "cmd/trainmodel"} {
		if !p.allowed(rel) {
			t.Errorf("%s should be allowlisted", rel)
		}
	}
	for _, rel := range []string{"internal/experiment", "internal/report", "internal/metrics", ".", "internal/obsolete", "commando", "cmd/tdfmserve", "internal/dist"} {
		if p.allowed(rel) {
			t.Errorf("%s should NOT be allowlisted", rel)
		}
	}
}

// TestNoDeterminismDenySubtrees pins Deny semantics: Deny beats Allow,
// subtree entries work on both sides, and an empty Deny changes
// nothing.
func TestNoDeterminismDenySubtrees(t *testing.T) {
	p := &NoDeterminism{Allow: []string{"cmd/"}, Deny: []string{"cmd/serve/"}}
	for rel, want := range map[string]bool{
		"cmd":             true,
		"cmd/other":       true,
		"cmd/serve":       false, // denied exactly (trailing slash matches the bare path too)
		"cmd/serve/child": false, // denied as a subtree
		"internal/x":      false, // never allowed in the first place
	} {
		if got := p.allowed(rel); got != want {
			t.Errorf("allowed(%q) = %v, want %v", rel, got, want)
		}
	}
	if p := (&NoDeterminism{Allow: []string{"cmd/"}}); !p.allowed("cmd/serve") {
		t.Error("empty Deny must leave the allowlist untouched")
	}
}

// TestDirectiveText pins the directive comment syntax.
func TestDirectiveText(t *testing.T) {
	cases := []struct {
		in      string
		payload string
		ok      bool
	}{
		{"//tdfm:allow docs reason", "docs reason", true},
		{"// tdfm:allow docs reason", "docs reason", true},
		{"//tdfm:allow", "", true},
		{"// plain comment", "", false},
		{"/* tdfm:allow docs reason */", "", false},
	}
	for _, tc := range cases {
		payload, ok := directiveText(tc.in)
		if ok != tc.ok || payload != tc.payload {
			t.Errorf("directiveText(%q) = %q, %v; want %q, %v", tc.in, payload, ok, tc.payload, tc.ok)
		}
	}
}

// TestLoadRejectsEmptyDir pins the ErrNoGoFiles sentinel contract that
// cmd/tdfmlint relies on for tests-only directories.
func TestLoadRejectsEmptyDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x_test.go"), []byte("package x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewLoader().Load(dir)
	if err == nil {
		t.Fatal("expected an error for a tests-only directory")
	}
	if !errors.Is(err, ErrNoGoFiles) {
		t.Fatalf("error %v does not wrap ErrNoGoFiles", err)
	}
}

// TestLoadHonorsBuildConstraints pins that Load type-checks only the
// files the build compiles: a per-architecture pair of declarations (a
// GOARCH file suffix and its //go:build complement) is one declaration,
// not a redeclaration.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	other := "arm64"
	if runtime.GOARCH == "arm64" {
		other = "amd64"
	}
	files := map[string]string{
		"x.go":                        "package x\n\nvar _ = v\n",
		"x_" + runtime.GOARCH + ".go": "package x\n\nvar v = 1\n",
		"x_other.go":                  "//go:build !" + runtime.GOARCH + "\n\npackage x\n\nvar v = 2\n",
		"x_" + other + "_only.go":     "//go:build " + other + "\n\npackage x\n\nvar v = 3\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkg, err := NewLoader().Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 2 || len(pkg.TypeErrors) != 0 {
		t.Fatalf("loaded %d files with type errors %v; want 2 files and none", len(pkg.Files), pkg.TypeErrors)
	}
}
