package lint

// PoolOwn: dataflow ownership checking for pooled tensor storage
// (DESIGN.md §10 contract, §12 engine).

import (
	"fmt"
	"go/ast"
	"go/token"
	"maps"
)

// tensorPkg is the import path of the buffer-pool package whose
// ownership contract the pass enforces.
const tensorPkg = "tdfm/internal/tensor"

// Ownership kinds a tracked value can have.
const (
	ownBuf      = iota // GetBuf slice: released by PutBuf
	ownTensor          // NewPooled tensor: released by Release
	ownArenaVal        // Arena-allocated value: invalidated by its arena's Reset/Release/RecycleSince
)

// Abstract facts about one tracked value (a bitset: paths may disagree).
const (
	fOwned    = 1 << iota // some path still holds the release obligation
	fReleased             // some path has already released/invalidated it
	fEscaped              // ownership left the function (return, justified store)
)

// ownEntry is the abstract state of one tracked allocation.
type ownEntry struct {
	kind   int
	bits   int
	origin token.Pos // the allocating call, where obligations anchor
	label  string    // "tensor.GetBuf", "tensor.NewPooled", …
	// deferRel records a registered deferred release (defer
	// tensor.PutBuf(v), defer t.Release()), which satisfies the exit
	// obligation on every path that executed the defer statement.
	deferRel bool
	// arena is the owning arena's key for ownArenaVal entries; their
	// "release" is the arena's Reset/Release.
	arena string
	// resetLabel names what invalidated an arena value, for messages.
	resetLabel string
}

// ownState maps value keys (refKey) to their abstract entry.
type ownState map[string]ownEntry

// PoolOwn enforces the pooled-buffer ownership contract on every
// function, path-sensitively over the CFG engine:
//
//   - every tensor.GetBuf buffer and NewPooled tensor must
//     reach its release (PutBuf, Release — directly or via
//     defer) on every return path, unless ownership escapes by being
//     returned;
//   - no use after release, and no double release;
//   - pooled values must not be stored into fields, globals, element
//     stores, or channels, or be captured by closures — those escapes
//     outlive the function and defeat intraprocedural ownership (a
//     deliberate long-lived handoff is justified with //tdfm:allow);
//   - values allocated from a tensor.Arena (Buf, Tensor, TensorLike,
//     WriteOnce, WriteOnceLike) must not be used after that arena's
//     Reset or Release in the same function, nor after a
//     RecycleSince(m, keep) unless they are keep: the storage is
//     reissued.
//
// The analysis is intraprocedural: passing a tracked value to a callee
// is a borrow (the obligation stays here), receiving one from a callee
// is untracked (the callee owns it), and aliasing through a local copy
// is a borrow too. Panicking paths are exempt — the pool never leaks
// buffers into live data, so the GC reclaims them during unwind.
type PoolOwn struct {
	// Allow lists module-relative package paths exempt from the pass
	// (same syntax as NoDeterminism.Allow).
	Allow []string
}

// NewPoolOwn returns the pass with the repo's exemptions: the pool
// implementation itself owns raw storage in ways client rules forbid.
func NewPoolOwn() *PoolOwn {
	return &PoolOwn{Allow: []string{
		"internal/tensor", // the pool/arena implementation is the contract, not a client
	}}
}

// Name implements Pass.
func (p *PoolOwn) Name() string { return "poolown" }

// Doc implements Pass.
func (p *PoolOwn) Doc() string {
	return "pooled buffers released on all paths, never used after release, never escaping the owning function"
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
	a := &ownAnalysis{pkg: pkg, pass: p, fnPos: fn.Pos(), fnEnd: fn.End()}
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
	// End-of-function obligations, one check per normal exit path.
	for _, s := range exitStates(cfg, lat, in, reached) {
		for _, e := range s {
			if e.kind == ownArenaVal {
				continue
			}
			if e.bits&fOwned != 0 && e.bits&fEscaped == 0 && !e.deferRel {
				report(e.origin, "%s result may not be released on every return path; pair it with %s (defer works) or justify with //tdfm:allow",
					e.label, releaserName(e))
			}
		}
	}
	sortFindings(out)
	return out
}

// releaserName names the missing release call for a leak message.
func releaserName(e ownEntry) string {
	if e.kind == ownTensor {
		return "Release"
	}
	return "tensor.PutBuf"
}

// joinOwn merges two path states: union of tracked values, bitwise-OR
// of path facts, and a deferred release only counts if both paths
// registered it.
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
		ea.deferRel = ea.deferRel && eb.deferRel
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
	pass         *PoolOwn
	fnPos, fnEnd token.Pos
}

// step is the transfer function; with report non-nil it also emits
// findings (the simulate phase). It never mutates s.
func (a *ownAnalysis) step(s ownState, n ast.Node, report func(token.Pos, string, ...any)) ownState {
	st := maps.Clone(s)
	// consumed collects identifier positions already handled as part of
	// a release, origin, or escape structure, so the generic
	// use-after-release scan does not double-report them.
	consumed := make(map[token.Pos]bool)

	switch x := n.(type) {
	case *ast.DeferStmt:
		a.applyDeferred(st, x.Call)
		return st
	case *ast.ReturnStmt:
		// Returning a tracked value transfers ownership to the caller.
		for _, res := range x.Results {
			if key, ok := refKey(a.pkg, res); ok {
				if e, tracked := st[key]; tracked {
					e.bits |= fEscaped
					st[key] = e
					if id := rootIdent(res); id != nil {
						consumed[id.Pos()] = true
					}
				}
			}
		}
	case *ast.SendStmt:
		a.escapeIfTracked(st, x.Value, "sent on a channel", report)
	case *ast.GoStmt:
		// A goroutine may outlive this frame; handing it a pooled value
		// defeats intraprocedural ownership just like a field store.
		for _, arg := range x.Call.Args {
			a.escapeIfTracked(st, arg, "passed to a goroutine", report)
		}
	case *ast.AssignStmt:
		a.assign(st, x, consumed, report)
	}

	// Releases, arena invalidations, and discarded allocations anywhere
	// in the node's expression tree.
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		a.call(st, n, call, consumed, report)
		return true
	})

	// Closure captures: a tracked value referenced inside a function
	// literal outlives this frame's reasoning. Deferred literals were
	// already credited as releases by applyDeferred.
	if _, isDefer := n.(*ast.DeferStmt); !isDefer {
		ast.Inspect(n, func(m ast.Node) bool {
			lit, ok := m.(*ast.FuncLit)
			if !ok {
				return true
			}
			a.closureCaptures(st, lit, report)
			return false
		})
	}

	// Generic use check: any remaining reference to a released value.
	a.checkUses(st, n, consumed, report)
	return st
}

// assign handles bindings of tracked origins and escaping stores.
func (a *ownAnalysis) assign(st ownState, x *ast.AssignStmt, consumed map[token.Pos]bool, report func(token.Pos, string, ...any)) {
	rhs := x.Rhs
	if len(x.Lhs) != len(rhs) {
		rhs = nil // multi-value calls and comma-ok forms bind no origin
	}
	for i, lh := range x.Lhs {
		// Escaping store: a tracked value written anywhere but a plain
		// local variable (a field, an element, a global) outlives the
		// function's ownership reasoning.
		if rhs != nil {
			if key, ok := refKey(a.pkg, rhs[i]); ok {
				if _, tracked := st[key]; tracked {
					if !isBareLocal(a.pkg, lh, a.fnPos, a.fnEnd) {
						a.escapeIfTracked(st, rhs[i], fmt.Sprintf("stored into %s", exprText(lh)), report)
					}
					// A copy into another local is a borrow: the original
					// key keeps the obligation; the copy is untracked.
					if id := rootIdent(rhs[i]); id != nil {
						consumed[id.Pos()] = true
					}
					continue
				}
			}
			if call, ok := ast.Unparen(rhs[i]).(*ast.CallExpr); ok {
				if kind, label, arena, isOrigin := a.origin(call); isOrigin {
					consumed[call.Pos()] = true // handled; not a discarded origin
					if isBareLocal(a.pkg, lh, a.fnPos, a.fnEnd) {
						key, ok := refKey(a.pkg, lh)
						if !ok {
							continue
						}
						st[key] = ownEntry{kind: kind, bits: fOwned, origin: call.Pos(), label: label, arena: arena}
					} else if kind != ownArenaVal {
						// Direct store of a fresh pooled value into a field,
						// global, or element: an escape at birth.
						if report != nil {
							report(call.Pos(), "%s result stored directly into %s; pooled storage must stay function-local (or carry a justified //tdfm:allow for a long-lived handoff)",
								label, exprText(lh))
						}
					}
				}
			}
		}
	}
}

// call handles release calls, arena invalidation, and discarded
// origins for one call expression found anywhere in a node.
func (a *ownAnalysis) call(st ownState, node ast.Node, call *ast.CallExpr, consumed map[token.Pos]bool, report func(token.Pos, string, ...any)) {
	pkg := a.pkg
	// PutBuf(v): release of a tracked buffer.
	if isPkgCall(pkg, call, tensorPkg, "PutBuf") {
		if len(call.Args) == 1 {
			a.release(st, call.Args[0], call, consumed, report)
		}
		return
	}
	// t.Release() on a tracked pooled tensor.
	if methodOn(pkg, call, tensorPkg, "Tensor", "Release") {
		if recv := recvExpr(call); recv != nil {
			a.release(st, recv, call, consumed, report)
		}
		return
	}
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
			if e.kind == ownArenaVal && e.arena == key && k != keep {
				e.bits = (e.bits &^ fOwned) | fReleased
				e.resetLabel = what
				st[k] = e
			}
		}
		return
	}
	// A discarded origin call (statement position, result unused) drops
	// the only handle to the buffer: legal per the pool contract (GC
	// reclaims it) but certainly a mistake worth flagging.
	if _, _, _, isOrigin := a.origin(call); isOrigin && !consumed[call.Pos()] {
		if stmt, ok := node.(*ast.ExprStmt); ok && ast.Unparen(stmt.X) == call && report != nil {
			report(call.Pos(), "pooled allocation result is discarded; bind it and release it, or drop the call")
		}
	}
}

// release transitions a tracked value to released, reporting double
// releases. Untracked arguments are a caller-owned borrow and stay
// silent.
func (a *ownAnalysis) release(st ownState, arg ast.Expr, call *ast.CallExpr, consumed map[token.Pos]bool, report func(token.Pos, string, ...any)) {
	key, ok := refKey(a.pkg, arg)
	if !ok {
		return
	}
	e, tracked := st[key]
	if !tracked {
		return
	}
	if id := rootIdent(arg); id != nil {
		consumed[id.Pos()] = true
	}
	if e.kind == ownArenaVal {
		if report != nil {
			report(call.Pos(), "%s allocated %s from an arena; arena storage is recycled by Reset and must not be released individually",
				exprText(arg), e.label)
		}
		return
	}
	if e.bits&fReleased != 0 && report != nil {
		if e.bits&fOwned != 0 {
			report(call.Pos(), "%s may already have been released on some path (double release corrupts the pool)", exprText(arg))
		} else {
			report(call.Pos(), "double release of %s (its storage may already be handed out again)", exprText(arg))
		}
	}
	e.bits = (e.bits &^ fOwned) | fReleased
	st[key] = e
}

// applyDeferred credits deferred release calls: a direct deferred call
// or any release calls inside a deferred closure body.
func (a *ownAnalysis) applyDeferred(st ownState, call *ast.CallExpr) {
	credit := func(c *ast.CallExpr) {
		var arg ast.Expr
		switch {
		case isPkgCall(a.pkg, c, tensorPkg, "PutBuf"):
			if len(c.Args) == 1 {
				arg = c.Args[0]
			}
		case methodOn(a.pkg, c, tensorPkg, "Tensor", "Release"):
			arg = recvExpr(c)
		}
		if arg == nil {
			return
		}
		if key, ok := refKey(a.pkg, arg); ok {
			if e, tracked := st[key]; tracked && e.kind != ownArenaVal {
				e.deferRel = true
				st[key] = e
			}
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok {
				credit(c)
			}
			return true
		})
		return
	}
	credit(call)
}

// escapeIfTracked reports and records an ownership escape.
func (a *ownAnalysis) escapeIfTracked(st ownState, e ast.Expr, how string, report func(token.Pos, string, ...any)) {
	key, ok := refKey(a.pkg, e)
	if !ok {
		return
	}
	ent, tracked := st[key]
	if !tracked || ent.bits&fEscaped != 0 {
		return
	}
	if ent.kind == ownArenaVal {
		how += " (arena storage is recycled at the next Reset)"
	}
	if report != nil {
		report(e.Pos(), "pooled value %s (from %s) %s; it escapes the owning function", exprText(e), ent.label, how)
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
				report(id.Pos(), "pooled value %s (from %s) is captured by a closure that may outlive the function; release before capture or justify", id.Name, e.label)
			}
			e.bits |= fEscaped
			st[key] = e
		}
		return true
	})
}

// checkUses reports reads of released values.
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
		e, tracked := st[key]
		if !tracked || e.bits&fReleased == 0 || e.bits&fEscaped != 0 {
			return true
		}
		switch {
		case e.kind == ownArenaVal:
			report(id.Pos(), "%s is used after %s; arena storage is rezeroed and reissued after a reset", id.Name, e.resetLabel)
		case e.bits&fOwned != 0:
			report(id.Pos(), "%s may be used after release on some path", id.Name)
		default:
			report(id.Pos(), "%s is used after release; its storage may already be handed out again", id.Name)
		}
		return true
	})
}

// origin classifies a call as a tracked allocation: kind, message
// label, and (for arena values) the owning arena's key.
func (a *ownAnalysis) origin(call *ast.CallExpr) (kind int, label, arena string, ok bool) {
	pkg := a.pkg
	switch {
	case isPkgCall(pkg, call, tensorPkg, "GetBuf"):
		return ownBuf, "tensor.GetBuf", "", true
	case isPkgCall(pkg, call, tensorPkg, "NewPooled"):
		return ownTensor, "tensor.NewPooled", "", true
	}
	for _, m := range [...]string{"Buf", "Tensor", "TensorLike", "WriteOnce", "WriteOnceLike"} {
		if methodOn(pkg, call, tensorPkg, "Arena", m) {
			recv := recvExpr(call)
			if recv == nil {
				return 0, "", "", false
			}
			key, ok := refKey(pkg, recv)
			if !ok {
				return 0, "", "", false
			}
			return ownArenaVal, exprText(recv) + "." + m, key, true
		}
	}
	return 0, "", "", false
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
