package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrNoGoFiles marks a directory with no non-test Go files to lint.
// Callers that walk directory trees (cmd/tdfmlint over a tests-only
// dir) treat it as "nothing to check" via errors.Is rather than as a
// failure.
var ErrNoGoFiles = errors.New("no non-test Go files")

// Package is one loaded target: the parsed files of a package directory
// plus, when requested, its go/types information.
type Package struct {
	// Dir is the package directory as given to Load.
	Dir string
	// RelPath is the directory relative to the module root ("." for the
	// root package). Path-scoped policies (the nodeterminism allowlist,
	// the paniccontract facade set) key on it. Outside a module it
	// falls back to the package name.
	RelPath string
	// Name is the package name from the package clauses.
	Name string
	// Fset maps AST positions back to source locations; shared across
	// every package a Loader loads.
	Fset *token.FileSet
	// Files are the parsed non-test files, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package, nil when checking failed
	// entirely.
	Types *types.Package
	// Info holds the type-checker's expression and identifier facts;
	// empty maps (never nil) when types were not requested.
	Info *types.Info
	// TypeErrors records type-checking problems; passes that depend on
	// type information degrade to what the AST alone supports.
	TypeErrors []error
}

// Loader parses and type-checks package directories. All packages
// loaded by one Loader share a FileSet and an importer, so repeated
// loads amortize the cost of type-checking shared dependencies.
//
// The Loader is itself the types.Importer for packages inside the
// enclosing module: an intra-module import path maps straight to its
// directory and loads through the same cache as a lint target, so each
// module package is parsed and type-checked exactly once per Loader —
// whether it first appears as a target or as a dependency of one.
// (Before this, the source importer re-resolved and re-checked every
// intra-module dependency through the go command, so a tree-wide run
// checked most packages twice.) Everything else — the standard library,
// out-of-module imports — falls through to the stdlib source importer,
// which keeps its own cache.
type Loader struct {
	// Fset is the shared position table.
	Fset *token.FileSet

	imp types.Importer
	// pkgs caches fully loaded module packages by import path; loading
	// marks in-flight paths to fail fast on import cycles instead of
	// recursing forever on malformed source.
	pkgs    map[string]*Package
	loading map[string]bool
	// modRoot/modPath describe the module of the most recent Load
	// target; intra-module import paths resolve against them.
	modRoot, modPath string
}

// NewLoader returns a loader with a fresh FileSet and a source-based
// importer (stdlib go/importer in "source" mode: no compiled export
// data needed, module imports resolve through the go command).
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		imp:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-local import paths
// load (cached) through this Loader; everything else goes to the
// source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if sub, ok := l.moduleLocal(path); ok {
		pkg, err := l.Load(filepath.Join(l.modRoot, filepath.FromSlash(sub)))
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: %s: type information unavailable", path)
		}
		return pkg.Types, nil
	}
	if from, ok := l.imp.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return l.imp.Import(path)
}

// moduleLocal reports whether an import path names a package inside the
// current module, returning its module-relative directory ("." for the
// root package).
func (l *Loader) moduleLocal(path string) (string, bool) {
	if l.modPath == "" {
		return "", false
	}
	if path == l.modPath {
		return ".", true
	}
	if sub, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return sub, true
	}
	return "", false
}

// Load parses the non-test Go files of dir that the build would compile
// for the host's GOOS and GOARCH (file-name suffixes and //go:build
// lines, as go/build matches them) and type-checks them. A directory with no buildable Go files or with two
// non-test packages is an error; type-check problems are not (they are
// recorded in Package.TypeErrors).
func (l *Loader) Load(dir string) (*Package, error) {
	if root, path := moduleRootAndPath(dir); path != "" {
		l.modRoot, l.modPath = root, path
	}
	key := importKeyFor(dir)
	if key != "" {
		if pkg, ok := l.pkgs[key]; ok {
			return pkg, nil
		}
		if l.loading[key] {
			return nil, fmt.Errorf("lint: import cycle through %s", key)
		}
		l.loading[key] = true
		defer delete(l.loading, key)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		} else if !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: %s: %w", dir, ErrNoGoFiles)
	}
	pkg := &Package{Dir: dir, Fset: l.Fset, Info: emptyInfo()}
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		} else if f.Name.Name != pkg.Name {
			return nil, fmt.Errorf("lint: %s holds two packages (%s, %s)", dir, pkg.Name, f.Name.Name)
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.RelPath = relToModule(dir, pkg.Name)
	l.typecheck(pkg)
	if key != "" {
		l.pkgs[key] = pkg
	}
	return pkg, nil
}

// typecheck runs go/types over the package, collecting rather than
// failing on errors so passes can still use whatever was resolved.
func (l *Loader) typecheck(pkg *Package) {
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	path := importPathFor(pkg)
	tp, err := conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tp
}

// emptyInfo allocates every Info map so passes can index them without
// nil checks regardless of whether types were computed.
func emptyInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// relToModule walks up from dir looking for go.mod and returns dir
// relative to it; outside any module it returns the package name so
// path-scoped policies still have something stable to key on.
func relToModule(dir, pkgName string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return pkgName
	}
	for root := abs; ; {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			rel, err := filepath.Rel(root, abs)
			if err != nil {
				return pkgName
			}
			return filepath.ToSlash(rel)
		}
		parent := filepath.Dir(root)
		if parent == root {
			return pkgName
		}
		root = parent
	}
}

// importPathFor derives the import path used for type-checking:
// module path + relative directory inside the module (matching what
// the source importer will use for intra-module imports), or the bare
// package name outside a module.
func importPathFor(pkg *Package) string {
	mod := modulePathFor(pkg.Dir)
	switch {
	case mod == "":
		return pkg.Name
	case pkg.RelPath == ".":
		return mod
	default:
		return mod + "/" + pkg.RelPath
	}
}

// modulePathFor reads the module path from the nearest go.mod above
// dir, or "" when there is none.
func modulePathFor(dir string) string {
	_, path := moduleRootAndPath(dir)
	return path
}

// moduleRootAndPath finds the nearest go.mod above dir, returning the
// module root directory and module path ("", "" outside any module).
func moduleRootAndPath(dir string) (string, string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", ""
	}
	for root := abs; ; {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return root, strings.TrimSpace(rest)
				}
			}
			return "", ""
		}
		parent := filepath.Dir(root)
		if parent == root {
			return "", ""
		}
		root = parent
	}
}

// importKeyFor derives the Loader cache key for a directory: its
// in-module import path (identical to what importPathFor computes for
// the loaded package), or "" — uncached — outside any module.
func importKeyFor(dir string) string {
	root, mod := moduleRootAndPath(dir)
	if mod == "" {
		return ""
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil {
		return ""
	}
	if rel == "." {
		return mod
	}
	return mod + "/" + filepath.ToSlash(rel)
}
