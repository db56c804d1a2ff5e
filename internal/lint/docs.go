package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Docs is the documentation gate: every package needs a package
// comment, and every exported top-level identifier — function, method
// on an exported type, type, constant, or variable — needs a doc
// comment. Test files are never loaded, so test helpers stay exempt by
// construction.
type Docs struct{}

// NewDocs returns the pass.
func NewDocs() *Docs { return &Docs{} }

// Name implements Pass.
func (p *Docs) Name() string { return "docs" }

// Doc implements Pass.
func (p *Docs) Doc() string {
	return "missing package comments and missing godoc on exported identifiers"
}

// Run implements Pass.
func (p *Docs) Run(pkg *Package) []Finding {
	var out []Finding
	report := func(pos token.Position, format string, args ...any) {
		out = append(out, Finding{Pass: p.Name(), Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	hasPkgDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			hasPkgDoc = true
			break
		}
	}
	if !hasPkgDoc && len(pkg.Files) > 0 {
		report(pkg.Fset.Position(pkg.Files[0].Name.Pos()), "package %s has no package comment", pkg.Name)
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				p.checkFunc(pkg, d, report)
			case *ast.GenDecl:
				p.checkGen(pkg, d, report)
			}
		}
	}
	return out
}

// checkFunc flags exported functions, and exported methods on exported
// receivers, that have no doc comment.
func (p *Docs) checkFunc(pkg *Package, d *ast.FuncDecl, report func(token.Position, string, ...any)) {
	if !d.Name.IsExported() || documented(d.Doc) {
		return
	}
	if d.Recv != nil {
		recv := receiverTypeName(d.Recv)
		if recv != "" && !ast.IsExported(recv) {
			return // method on an unexported type: not part of the API
		}
		report(pkg.Fset.Position(d.Pos()), "exported method %s.%s has no doc comment", recv, d.Name.Name)
		return
	}
	report(pkg.Fset.Position(d.Pos()), "exported function %s has no doc comment", d.Name.Name)
}

// checkGen flags exported type/const/var specs documented neither on
// the spec nor on the enclosing declaration group.
func (p *Docs) checkGen(pkg *Package, d *ast.GenDecl, report func(token.Position, string, ...any)) {
	if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
		return
	}
	groupDoc := documented(d.Doc)
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !groupDoc && !documented(s.Doc) {
				report(pkg.Fset.Position(s.Pos()), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			if groupDoc || documented(s.Doc) || documented(s.Comment) {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(pkg.Fset.Position(name.Pos()), "exported %s %s has no doc comment", d.Tok, name.Name)
				}
			}
		}
	}
}

// documented reports whether a comment group carries actual text.
func documented(doc *ast.CommentGroup) bool {
	return doc != nil && strings.TrimSpace(doc.Text()) != ""
}
