package lint

// PoolOwn: dataflow checking of arena handouts (DESIGN.md §10
// contract, §12 engine).

import (
	"fmt"
	"go/ast"
	"go/token"
	"maps"
)

// tensorPkg is the import path of the arena package whose contract the
// pass enforces.
const tensorPkg = "tdfm/internal/tensor"

// Abstract facts about one arena handout (a bitset: paths may disagree).
const (
	fReleased = 1 << iota // some path has reset or recycled its arena since the handout
	fEscaped              // the handout left the function (store, send, goroutine, closure)
)

// ownEntry is the abstract state of one tracked arena handout.
type ownEntry struct {
	bits  int
	label string // "a.Buf", "a.WriteOnce", …
	// arena is the owning arena's key; its Reset, Release or
	// RecycleSince invalidates the handout.
	arena string
	// resetLabel names what invalidated the handout, for messages.
	resetLabel string
}

// ownState maps value keys (refKey) to their abstract entry.
type ownState map[string]ownEntry

// PoolOwn enforces the arena contract on every function,
// path-sensitively over the CFG engine. A value allocated from a
// tensor.Arena (Buf, Tensor, TensorLike, WriteOnce, WriteOnceLike):
//
//   - must not be used after that arena's Reset or Release in the same
//     function, nor after a RecycleSince(m, keep) unless it is keep: the
//     storage is reissued;
//   - must not be stored into fields, globals, element stores, or
//     channels, or be captured by closures or handed to goroutines —
//     those escapes outlive the arena's next Reset;
//   - must not be discarded on the spot.
//
// The analysis is intraprocedural: passing a handout to a callee is a
// borrow, receiving one from a callee is untracked, and aliasing
// through a local copy is a borrow too.
type PoolOwn struct {
	// Allow lists module-relative package paths exempt from the pass
	// (same syntax as NoDeterminism.Allow).
	Allow []string
}

// NewPoolOwn returns the pass with the repo's exemptions: the arena
// implementation itself owns raw storage in ways client rules forbid.
func NewPoolOwn() *PoolOwn {
	return &PoolOwn{Allow: []string{
		"internal/tensor", // the arena implementation is the contract, not a client
	}}
}

// Name implements Pass.
func (p *PoolOwn) Name() string { return "poolown" }

// Doc implements Pass.
func (p *PoolOwn) Doc() string {
	return "arena handouts never used after their arena's Reset, Release or RecycleSince, never escaping the owning function"
}

// Run implements Pass.
func (p *PoolOwn) Run(pkg *Package) []Finding {
	if matchPath(p.Allow, pkg.RelPath) || pkg.Types == nil {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		funcBodies(f, func(fn ast.Node, body *ast.BlockStmt, name string) {
			out = append(out, p.checkFunc(pkg, fn, body)...)
		})
	}
	return out
}

// checkFunc analyzes one function body.
func (p *PoolOwn) checkFunc(pkg *Package, fn ast.Node, body *ast.BlockStmt) []Finding {
	cfg := BuildCFG(pkg, body)
	a := &ownAnalysis{pkg: pkg, fnPos: fn.Pos(), fnEnd: fn.End()}
	lat := flowLattice[ownState]{
		entry:    ownState{},
		transfer: func(s ownState, n ast.Node) ownState { return a.step(s, n, nil) },
		join:     joinOwn,
		equal: func(x, y ownState) bool {
			return maps.Equal(x, y)
		},
	}
	in, reached := forward(cfg, lat)

	var out []Finding
	seen := make(map[string]bool)
	report := func(pos token.Pos, format string, args ...any) {
		f := Finding{Pass: p.Name(), Pos: pkg.Fset.Position(pos), Message: fmt.Sprintf(format, args...)}
		key := f.Pos.String() + f.Message
		if !seen[key] {
			seen[key] = true
			out = append(out, f)
		}
	}
	simulate(cfg, lat, in, reached, func(s ownState, n ast.Node) ownState {
		return a.step(s, n, report)
	})
	sortFindings(out)
	return out
}

// joinOwn merges two path states: union of tracked values and
// bitwise-OR of path facts.
func joinOwn(a, b ownState) ownState {
	out := make(ownState, len(a))
	maps.Copy(out, a)
	for k, eb := range b {
		ea, ok := out[k]
		if !ok {
			out[k] = eb
			continue
		}
		ea.bits |= eb.bits
		if eb.resetLabel != "" {
			ea.resetLabel = eb.resetLabel
		}
		out[k] = ea
	}
	return out
}

// ownAnalysis carries per-function context for the transfer function.
type ownAnalysis struct {
	pkg          *Package
	fnPos, fnEnd token.Pos
}

// step is the transfer function; with report non-nil it also emits
// findings (the simulate phase). It never mutates s.
func (a *ownAnalysis) step(s ownState, n ast.Node, report func(token.Pos, string, ...any)) ownState {
	st := maps.Clone(s)
	// consumed collects identifier positions already handled as part of
	// an origin or escape structure, so the generic use-after-reset scan
	// does not double-report them.
	consumed := make(map[token.Pos]bool)

	switch x := n.(type) {
	case *ast.DeferStmt:
		// A deferred call runs at exit, after every use in the body.
		return st
	case *ast.SendStmt:
		a.escapeIfTracked(st, x.Value, "sent on a channel", report)
	case *ast.GoStmt:
		// A goroutine may outlive the arena's next Reset, just like a
		// field store.
		for _, arg := range x.Call.Args {
			a.escapeIfTracked(st, arg, "passed to a goroutine", report)
		}
	case *ast.AssignStmt:
		a.assign(st, x, consumed, report)
	}

	// Arena invalidations and discarded handouts anywhere in the node's
	// expression tree.
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		a.call(st, n, call, consumed, report)
		return true
	})

	// Closure captures: a tracked value referenced inside a function
	// literal outlives this frame's reasoning.
	ast.Inspect(n, func(m ast.Node) bool {
		lit, ok := m.(*ast.FuncLit)
		if !ok {
			return true
		}
		a.closureCaptures(st, lit, report)
		return false
	})

	// Generic use check: any remaining reference to an invalidated value.
	a.checkUses(st, n, consumed, report)
	return st
}

// assign handles bindings of arena handouts and escaping stores.
func (a *ownAnalysis) assign(st ownState, x *ast.AssignStmt, consumed map[token.Pos]bool, report func(token.Pos, string, ...any)) {
	if len(x.Lhs) != len(x.Rhs) {
		return // multi-value calls and comma-ok forms bind no handout
	}
	for i, lh := range x.Lhs {
		rh := x.Rhs[i]
		// Escaping store: a tracked value written anywhere but a plain
		// local variable (a field, an element, a global) outlives the
		// function's reasoning.
		if key, ok := refKey(a.pkg, rh); ok {
			if _, tracked := st[key]; tracked {
				if !isBareLocal(a.pkg, lh, a.fnPos, a.fnEnd) {
					a.escapeIfTracked(st, rh, fmt.Sprintf("stored into %s", exprText(lh)), report)
				}
				// A copy into another local is a borrow: the original
				// key stays tracked; the copy is not.
				if id := rootIdent(rh); id != nil {
					consumed[id.Pos()] = true
				}
				continue
			}
		}
		call, ok := ast.Unparen(rh).(*ast.CallExpr)
		if !ok {
			continue
		}
		if label, arena, isOrigin := a.origin(call); isOrigin {
			consumed[call.Pos()] = true // handled; not a discarded handout
			if isBareLocal(a.pkg, lh, a.fnPos, a.fnEnd) {
				if key, ok := refKey(a.pkg, lh); ok {
					st[key] = ownEntry{label: label, arena: arena}
				}
			}
		}
	}
}

// call handles arena invalidation and discarded handouts for one call
// expression found anywhere in a node.
func (a *ownAnalysis) call(st ownState, node ast.Node, call *ast.CallExpr, consumed map[token.Pos]bool, report func(token.Pos, string, ...any)) {
	pkg := a.pkg
	// Arena Reset/Release invalidates every value allocated from it here;
	// RecycleSince(m, keep) every one but keep.
	recycle := methodOn(pkg, call, tensorPkg, "Arena", "RecycleSince")
	if recycle || methodOn(pkg, call, tensorPkg, "Arena", "Reset") || methodOn(pkg, call, tensorPkg, "Arena", "Release") {
		recv := recvExpr(call)
		if recv == nil {
			return
		}
		key, ok := refKey(pkg, recv)
		if !ok {
			return
		}
		keep := ""
		if recycle && len(call.Args) == 2 {
			keep, _ = refKey(pkg, call.Args[1])
		}
		what := exprText(recv) + "." + calleeFunc(pkg, call).Name() + "()"
		for k, e := range st {
			if e.arena == key && k != keep {
				e.bits |= fReleased
				e.resetLabel = what
				st[k] = e
			}
		}
		return
	}
	// A discarded handout (statement position, result unused) is dead
	// storage until the next Reset: certainly a mistake worth flagging.
	if _, _, isOrigin := a.origin(call); isOrigin && !consumed[call.Pos()] {
		if stmt, ok := node.(*ast.ExprStmt); ok && ast.Unparen(stmt.X) == call && report != nil {
			report(call.Pos(), "arena handout is discarded; bind it or drop the call")
		}
	}
}

// escapeIfTracked reports and records an escape.
func (a *ownAnalysis) escapeIfTracked(st ownState, e ast.Expr, how string, report func(token.Pos, string, ...any)) {
	key, ok := refKey(a.pkg, e)
	if !ok {
		return
	}
	ent, tracked := st[key]
	if !tracked || ent.bits&fEscaped != 0 {
		return
	}
	if report != nil {
		report(e.Pos(), "arena value %s (from %s) %s; it escapes the owning function (arena storage is recycled at the next Reset)", exprText(e), ent.label, how)
	}
	ent.bits |= fEscaped
	st[key] = ent
}

// closureCaptures flags tracked values referenced inside a (non-defer)
// function literal.
func (a *ownAnalysis) closureCaptures(st ownState, lit *ast.FuncLit, report func(token.Pos, string, ...any)) {
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		key, ok := refKey(a.pkg, id)
		if !ok {
			return true
		}
		if e, tracked := st[key]; tracked && e.bits&fEscaped == 0 {
			if report != nil {
				report(id.Pos(), "arena value %s (from %s) is captured by a closure that may outlive the arena's next Reset", id.Name, e.label)
			}
			e.bits |= fEscaped
			st[key] = e
		}
		return true
	})
}

// checkUses reports reads of invalidated values.
func (a *ownAnalysis) checkUses(st ownState, n ast.Node, consumed map[token.Pos]bool, report func(token.Pos, string, ...any)) {
	if report == nil {
		return
	}
	inspectShallow(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || consumed[id.Pos()] {
			return true
		}
		key, ok := refKey(a.pkg, id)
		if !ok {
			return true
		}
		if e, tracked := st[key]; tracked && e.bits&fReleased != 0 && e.bits&fEscaped == 0 {
			report(id.Pos(), "%s is used after %s; arena storage is rezeroed and reissued after a reset", id.Name, e.resetLabel)
		}
		return true
	})
}

// origin classifies a call as an arena handout: its message label and
// the owning arena's key.
func (a *ownAnalysis) origin(call *ast.CallExpr) (label, arena string, ok bool) {
	for _, m := range [...]string{"Buf", "Tensor", "TensorLike", "WriteOnce", "WriteOnceLike"} {
		if methodOn(a.pkg, call, tensorPkg, "Arena", m) {
			recv := recvExpr(call)
			if recv == nil {
				return "", "", false
			}
			key, ok := refKey(a.pkg, recv)
			if !ok {
				return "", "", false
			}
			return exprText(recv) + "." + m, key, true
		}
	}
	return "", "", false
}

// isBareLocal reports whether an assignment target is a plain
// identifier naming a function-local variable (including the blank
// identifier, which discards rather than stores).
func isBareLocal(pkg *Package, e ast.Expr, fnPos, fnEnd token.Pos) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	return isLocalRoot(pkg, id, fnPos, fnEnd)
}
