// Package lint is the pass framework behind cmd/tdfmlint, the repo's
// go vet-style determinism and correctness analyzer. A Pass inspects
// one loaded (parsed and type-checked) package and reports Findings;
// Run executes a set of passes over a set of packages, applies
// `//tdfm:allow <pass> <reason>` suppression directives, and flags
// malformed or useless directives as findings of their own.
//
// Every pass uses only the standard library (go/ast, go/parser,
// go/types); cross-package type information comes from go/types'
// source importer, so the analyzer needs no compiled artifacts and no
// third-party modules.
//
// The shipped passes guard the invariants the reproduction's claims
// rest on — byte-identical grids at any worker count, under resume and
// under fault recovery:
//
//   - nodeterminism: unseeded randomness, wall-clock reads, and bare
//     goroutines outside the sanctioned concurrency/observability
//     packages;
//   - maporder: map iteration whose body produces order-sensitive
//     output (slice appends, float accumulation, writer output);
//   - errwrap: sentinel errors compared with == or wrapped without %w;
//   - paniccontract: exported facade functions that can panic but do
//     not document it;
//   - docs: missing godoc on exported identifiers;
//   - poolown: tensor arena handouts never used after their arena's
//     Reset, Release or RecycleSince, never escaping the owning
//     function (path-sensitive, on the cfg.go/dataflow.go engine);
//   - lockdiscipline: mutex lock/unlock pairing on all paths,
//     double-lock detection, and no blocking operations while a
//     serving/registry hot-path lock is held (same engine).
//
// The last two run on a per-function control-flow graph with a forward
// abstract-interpretation driver — see cfg.go for the engine and
// DESIGN.md §12 for its design; it is the extension point for any
// future path-sensitive pass.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one problem a pass reports, anchored to a source position.
type Finding struct {
	// Pass is the name of the pass that produced the finding (or the
	// pseudo-pass "directive" for malformed suppressions).
	Pass string
	// Pos locates the finding; suppression directives match on its file
	// and line.
	Pos token.Position
	// Message describes the problem and, where possible, the fix.
	Message string
	// SuppressedBy is the justification of the //tdfm:allow directive
	// that silenced this finding; empty for active findings. RunAll
	// returns suppressed findings so tooling (tdfmlint -json) can show
	// what the directives are excusing.
	SuppressedBy string
}

// String formats the finding in the conventional path:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Pass, f.Message)
}

// Pass is one analyzer: it inspects a loaded package and reports
// findings. Passes must be stateless across Run calls (they may run
// over many packages) and must not mutate the package.
type Pass interface {
	// Name is the identifier used in output and in //tdfm:allow
	// directives.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Run inspects pkg and returns its findings.
	Run(pkg *Package) []Finding
}

// AllPasses returns a fresh instance of every shipped pass with default
// configuration, in the order tdfmlint runs them. The set of names also
// defines which passes a //tdfm:allow directive may reference.
func AllPasses() []Pass {
	return []Pass{
		NewNoDeterminism(),
		NewMapOrder(),
		NewErrWrap(),
		NewPanicContract(),
		NewDocs(),
		NewPoolOwn(),
		NewLockDiscipline(),
	}
}

// KnownPassNames returns the names a //tdfm:allow directive may
// legally reference: every shipped pass, whether or not it is part of
// the current run (a run of one pass, as the golden tests make, must not
// reject the suppressions the other passes rely on).
func KnownPassNames() map[string]bool {
	known := make(map[string]bool)
	for _, p := range AllPasses() {
		known[p.Name()] = true
	}
	return known
}

// Run executes the passes over every package, applies suppression
// directives, and returns the surviving findings plus any directive
// problems (unknown pass, missing reason, suppressing nothing, exact
// duplicates), sorted by position then pass name.
func Run(pkgs []*Package, passes []Pass) []Finding {
	active, _ := RunAll(pkgs, passes)
	return active
}

// RunAll is Run but also returns the findings that //tdfm:allow
// directives suppressed, each carrying the directive's justification in
// SuppressedBy. Only the active findings gate; the suppressed ones
// exist for tooling that audits what the tree's directives excuse.
func RunAll(pkgs []*Package, passes []Pass) (active, suppressed []Finding) {
	known := KnownPassNames()
	ran := make(map[string]bool, len(passes))
	for _, p := range passes {
		ran[p.Name()] = true
	}
	for _, pkg := range pkgs {
		dirs, bad := collectDirectives(pkg, known)
		active = append(active, bad...)
		for _, p := range passes {
			for _, f := range p.Run(pkg) {
				if d := suppressedBy(dirs, f); d != nil {
					f.SuppressedBy = d.Reason
					suppressed = append(suppressed, f)
				} else {
					active = append(active, f)
				}
			}
		}
		// A directive for a pass that ran but suppressed nothing is
		// stale: the code it excused has moved or been fixed.
		for _, d := range dirs {
			if ran[d.Pass] && !d.used && !d.dup {
				active = append(active, Finding{
					Pass: DirectivePass,
					Pos:  d.Pos,
					Message: fmt.Sprintf(
						"//tdfm:allow %s suppresses nothing; delete the stale directive", d.Pass),
				})
			}
		}
	}
	sortFindings(active)
	sortFindings(suppressed)
	return active, suppressed
}

// sortFindings orders findings by file, line, column, then pass.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
}
