package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The loader is a small source-mode package loader and type-checker built
// from the standard library alone (the module is dependency-free, so
// golang.org/x/tools/go/packages is not available). It resolves import paths
// in two worlds: paths under the module prefix map to directories inside the
// module, everything else is located through go/build against GOROOT (with
// cgo disabled, so the pure-Go file sets of net, os/user, etc. are selected).
// Every package — including the standard-library closure — is parsed and
// type-checked from source with go/types; results are cached per directory
// so each package is checked exactly once and type identity is preserved
// across the whole analysis.
//
// Test files are never loaded: the analyzers enforce production invariants,
// and tests allocate, spawn, and improvise freely by design.

// Package is one loaded, type-checked module package ready for analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the package's directory.
	Dir string
	// Fset is the loader-wide file set all positions resolve through.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's fact tables for Files.
	Info *types.Info
}

// Loader loads and type-checks packages from source.
type Loader struct {
	Fset *token.FileSet

	ctxt       build.Context
	moduleDir  string
	modulePath string

	// byDir caches one load per package directory (the canonical key:
	// vendored import paths and the module prefix both funnel to a dir).
	byDir map[string]*loadEntry
}

type loadEntry struct {
	pkg     *Package // nil for non-module (dependency-only) packages
	tpkg    *types.Package
	err     error
	loading bool
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	moduleDir, modulePath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false
	// The loader resolves only module-internal and GOROOT packages; an
	// inherited GOPATH must not leak third-party trees into the analysis.
	ctxt.GOPATH = ""
	return &Loader{
		Fset:       token.NewFileSet(),
		ctxt:       ctxt,
		moduleDir:  moduleDir,
		modulePath: modulePath,
		byDir:      make(map[string]*loadEntry),
	}, nil
}

// ModulePath returns the module's import path prefix.
func (l *Loader) ModulePath() string { return l.modulePath }

// findModule walks up from dir to the enclosing go.mod and reads its module
// path.
func findModule(dir string) (moduleDir, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load resolves the given patterns ("./...", "./internal/features", or plain
// import paths under the module) and returns the matched packages,
// type-checked with full info, sorted by import path. Directories named
// testdata and hidden directories are skipped by "..." expansion, matching
// the go tool.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "..." || pat == "./...":
			expanded, err := l.expandDir(l.moduleDir)
			if err != nil {
				return nil, err
			}
			for _, d := range expanded {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			root := strings.TrimSuffix(pat, "/...")
			expanded, err := l.expandDir(l.resolvePatternDir(root))
			if err != nil {
				return nil, err
			}
			for _, d := range expanded {
				add(d)
			}
		default:
			add(l.resolvePatternDir(pat))
		}
	}

	var pkgs []*Package
	for _, dir := range dirs {
		entry := l.loadDir(dir)
		if entry.err != nil {
			if _, ok := entry.err.(*build.NoGoError); ok && len(dirs) > 1 {
				continue
			}
			return nil, fmt.Errorf("lint: %s: %w", dir, entry.err)
		}
		if entry.pkg != nil {
			pkgs = append(pkgs, entry.pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// resolvePatternDir maps one non-wildcard pattern to a directory.
func (l *Loader) resolvePatternDir(pat string) string {
	switch {
	case pat == "." || pat == "./":
		return l.moduleDir
	case strings.HasPrefix(pat, "./"):
		return filepath.Join(l.moduleDir, filepath.FromSlash(pat[2:]))
	case pat == l.modulePath:
		return l.moduleDir
	case strings.HasPrefix(pat, l.modulePath+"/"):
		return filepath.Join(l.moduleDir, filepath.FromSlash(pat[len(l.modulePath)+1:]))
	case filepath.IsAbs(pat):
		return pat
	default:
		return filepath.Join(l.moduleDir, filepath.FromSlash(pat))
	}
}

// expandDir lists every package directory under root, skipping testdata,
// hidden, and underscore-prefixed directories.
func (l *Loader) expandDir(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := l.ctxt.ImportDir(path, 0); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// importPathForDir derives the canonical import path of dir: module-relative
// for module packages, GOROOT/src-relative for the standard library (with the
// std vendor prefix stripped, so sync is "sync" and the vendored
// golang.org/x/net keeps its public path). Analyzers compare package paths
// against literals like "sync" and "context"; the type-checked packages must
// carry those canonical names.
func (l *Loader) importPathForDir(dir string) string {
	if rel, err := filepath.Rel(l.moduleDir, dir); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.modulePath
		}
		return l.modulePath + "/" + filepath.ToSlash(rel)
	}
	src := filepath.Join(l.ctxt.GOROOT, "src")
	if rel, err := filepath.Rel(src, dir); err == nil && !strings.HasPrefix(rel, "..") {
		p := filepath.ToSlash(rel)
		if rest, ok := strings.CutPrefix(p, "vendor/"); ok {
			return rest
		}
		return p
	}
	return dir
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.moduleDir, 0)
}

// ImportFrom implements types.ImporterFrom; go/types calls it with the
// directory of the importing package, which lets go/build resolve the
// standard library's vendored dependencies.
func (l *Loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	var dir string
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		dir = filepath.Join(l.moduleDir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")))
	} else {
		bp, err := l.ctxt.Import(path, srcDir, build.FindOnly)
		if err != nil {
			return nil, err
		}
		if !bp.Goroot {
			return nil, fmt.Errorf("lint: import %q resolves outside the module and GOROOT (%s)", path, bp.Dir)
		}
		dir = bp.Dir
	}
	entry := l.loadDir(dir)
	if entry.err != nil {
		return nil, entry.err
	}
	return entry.tpkg, nil
}

// loadDir parses and type-checks the package in dir, caching the result.
// Module packages keep their syntax and full type info for analysis;
// dependency packages outside the module are checked for their exported API
// only.
func (l *Loader) loadDir(dir string) *loadEntry {
	if e, ok := l.byDir[dir]; ok {
		if e.loading {
			return &loadEntry{err: fmt.Errorf("import cycle through %s", dir)}
		}
		return e
	}
	e := &loadEntry{loading: true}
	l.byDir[dir] = e
	defer func() { e.loading = false }()

	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		e.err = err
		return e
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			e.err = err
			return e
		}
		files = append(files, f)
	}

	inModule := strings.HasPrefix(dir, l.moduleDir+string(filepath.Separator)) || dir == l.moduleDir
	var info *types.Info
	if inModule {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
			Instances:  make(map[*ast.Ident]types.Instance),
		}
	}

	importPath := l.importPathForDir(dir)
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
		Sizes:    types.SizesFor(l.ctxt.Compiler, l.ctxt.GOARCH),
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for i, terr := range typeErrs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-i))
				break
			}
			msgs = append(msgs, terr.Error())
		}
		e.err = fmt.Errorf("type errors in %s:\n\t%s", importPath, strings.Join(msgs, "\n\t"))
		return e
	}
	if err != nil {
		e.err = err
		return e
	}
	e.tpkg = tpkg
	if inModule {
		e.pkg = &Package{
			Path:  importPath,
			Dir:   dir,
			Fset:  l.Fset,
			Files: files,
			Types: tpkg,
			Info:  info,
		}
	}
	return e
}
