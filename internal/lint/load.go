package lint

import (
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

// Package is one parsed, type-checked package of the module.
type Package struct {
	Path  string // import path ("dpml/internal/sim")
	Dir   string // directory, relative to the module root
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Src maps each file's fset name to its source, for suppression
	// comments that need the raw line text.
	Src map[string][]byte
}

// Loader parses and type-checks the module's packages without the go
// toolchain: module-local imports are resolved recursively from the
// module root, everything else (the standard library) goes through
// go/importer's source importer. Load order is deterministic, and file
// positions are recorded relative to the module root so findings and
// golden files are machine-independent.
type Loader struct {
	Root    string // absolute module root (directory of go.mod)
	ModPath string
	Fset    *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader opens the module rooted at root (a directory containing
// go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: not a module root: %w", err)
	}
	path := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			path = strings.TrimSpace(rest)
			break
		}
	}
	if path == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:    abs,
		ModPath: path,
		Fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// LoadAll loads every package of the module (the "./..." set: testdata
// and hidden directories are skipped, as the go tool does), sorted by
// import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	out := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		ip := l.ModPath
		if rel != "." {
			ip = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.Load(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && isSource(dir, e.Name()) {
			return true
		}
	}
	return false
}

// isSource reports whether name is a non-test Go file in dir that the
// default build compiles: build constraints are honored, so a package can
// pick one of several files with a build tag, as internal/race does.
func isSource(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

// Load loads the module package with the given import path.
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if importPath != l.ModPath && !strings.HasPrefix(importPath, l.ModPath+"/") {
		return nil, fmt.Errorf("lint: %q is not a module package", importPath)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModPath), "/")
	dir := l.Root
	if rel != "" {
		dir = filepath.Join(l.Root, filepath.FromSlash(rel))
	}
	return l.LoadDir(dir, importPath)
}

// LoadDir loads the package in dir under the given import path. It is
// the entry point for testdata fixture packages, which live outside the
// "./..." set but still import module packages.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %q", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: importPath, Fset: l.Fset, Src: map[string][]byte{}}
	if rel, err := filepath.Rel(l.Root, dir); err == nil {
		pkg.Dir = filepath.ToSlash(rel)
	}
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !isSource(dir, n) {
			continue
		}
		full := filepath.Join(dir, n)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		// Positions are recorded relative to the module root so output is
		// stable whatever directory the driver runs from.
		name := full
		if rel, err := filepath.Rel(l.Root, full); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
		f, err := parser.ParseFile(l.Fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Src[name] = src
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(importPath, l.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg.Types = tpkg
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// Loaded returns every module package this loader has type-checked —
// the requested ones plus their module-local dependency closure —
// sorted by import path. Module analyzers build their call graph over
// this set so helper bodies outside the requested packages stay
// visible.
func (l *Loader) Loaded() []*Package {
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		out = append(out, l.pkgs[p])
	}
	return out
}

// Import implements types.Importer for the type-checker: module-local
// paths load recursively, the rest goes to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
