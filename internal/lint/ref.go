package lint

// Shared go/types plumbing for the dataflow passes: resolving what a
// call expression actually calls, and producing stable intraprocedural
// keys for the storage locations (a local, a field chain, an indexed
// element) that abstract states are keyed on.

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// calleeFunc resolves the *types.Func a call invokes, or nil for
// builtins, conversions, function-typed variables, and calls the
// checker could not resolve.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// methodOn reports whether call invokes a method with the given name
// whose receiver's core named type is pkgPath.typeName (through
// pointers). An empty typeName matches any receiver type in pkgPath.
func methodOn(pkg *Package, call *ast.CallExpr, pkgPath, typeName, name string) bool {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != pkgPath {
		return false
	}
	return typeName == "" || named.Obj().Name() == typeName
}

// namedOf unwraps pointers (and aliases) down to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x
		case *types.Alias:
			t = types.Unalias(x)
		default:
			return nil
		}
	}
}

// recvExpr returns the receiver expression of a method call
// (x in x.M(…)), or nil for non-selector calls.
func recvExpr(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// refKey produces a stable intraprocedural key for a reference
// expression: an identifier, a field-selection chain, or an indexed
// element rooted in one. The root identifier contributes its defining
// position (so distinct shadowed variables of the same name get
// distinct keys) and fields/indices contribute their printed path.
// The second result is false for expressions that are not trackable
// references (call results, literals, arithmetic).
func refKey(pkg *Package, e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
		}
		if obj == nil {
			// No type info: the bare name is the best stable key we have.
			return x.Name, true
		}
		if _, isPkg := obj.(*types.PkgName); isPkg {
			return "", false // package qualifiers root nothing trackable
		}
		return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos()), true
	case *ast.SelectorExpr:
		base, ok := refKey(pkg, x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	case *ast.IndexExpr:
		base, ok := refKey(pkg, x.X)
		if !ok {
			return "", false
		}
		return base + "[" + exprText(x.Index) + "]", true
	case *ast.StarExpr:
		return refKey(pkg, x.X)
	}
	return "", false
}

// rootIdent returns the identifier at the base of a reference chain
// (v in v.a.b[i]), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isLocalRoot reports whether a reference chain is rooted in a variable
// local to the analyzed function body (parameters included): the only
// storage an intraprocedural pass can reason about. fnPos..fnEnd bound
// the body.
func isLocalRoot(pkg *Package, e ast.Expr, fnPos, fnEnd token.Pos) bool {
	id := rootIdent(e)
	if id == nil {
		return false
	}
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Pos() >= fnPos && v.Pos() < fnEnd
}

// exprText renders an expression compactly for keys and messages.
func exprText(e ast.Expr) string {
	var sb strings.Builder
	_ = printer.Fprint(&sb, token.NewFileSet(), e)
	s := sb.String()
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}

// funcBodies yields every function body in a file — declarations and
// function literals — each of which is analyzed as its own unit by the
// dataflow passes. Literals nested inside a body are both (a) skipped
// by that body's CFG (they are values there) and (b) visited here as
// bodies in their own right. fn is the whole function node, whose
// position range bounds the function's local declarations.
func funcBodies(f *ast.File, visit func(fn ast.Node, body *ast.BlockStmt, name string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body != nil {
				visit(x, x.Body, x.Name.Name)
			}
		case *ast.FuncLit:
			visit(x, x.Body, "func literal")
		}
		return true
	})
}

// inspectShallow walks the expression tree of one CFG node without
// descending into function literals (their bodies are separate
// analysis units) or into nested statement bodies (a SelectStmt or
// RangeStmt node in a block head carries its body in the AST, but the
// CFG lowers that body into successor blocks of its own — applying its
// effects at the head would double-count them on the wrong path).
func inspectShallow(n ast.Node, visit func(ast.Node) bool) {
	var top ast.Node
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if top == nil {
			top = m
		}
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		if m != top {
			switch m.(type) {
			case *ast.BlockStmt, *ast.CommClause, *ast.CaseClause:
				return false
			}
		}
		return visit(m)
	})
}
