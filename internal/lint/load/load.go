// Package load turns `go list` output into type-checked packages without
// depending on golang.org/x/tools/go/packages. The trick: `go list -deps
// -export` compiles every dependency and reports the path of its export
// data, so the target packages can be parsed from source and type-checked
// with go/importer's gc importer resolving all imports — standard library
// included — from those export files. That keeps the whole lint pipeline
// offline and hermetic.
package load

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one source-checked package ready for analysis.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listEntry mirrors the subset of `go list -json` fields the loader needs.
type listEntry struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
	// ForTest and ImportMap are set on the test variants `go list -test`
	// reports: the package under test, and the source import paths
	// rewritten to test-variant builds.
	ForTest   string
	ImportMap map[string]string
}

// goList runs `go list` in dir with the given extra arguments and decodes
// the JSON stream.
func goList(dir string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var entries []listEntry
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

const listFields = "-json=ImportPath,Name,Dir,Export,GoFiles,Standard,DepOnly,Incomplete,Error,ForTest,ImportMap"

// Load lists patterns in dir, compiles export data for every dependency,
// and returns the pattern-matched packages parsed from source and fully
// type-checked. All returned packages share one FileSet.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, false, patterns)
}

// LoadTests is Load for the test builds of patterns: for each package
// with tests, its in-package test variant (its files plus its in-package
// _test.go files) and its external _test package. A package's
// ImportPath drops the " [p.test]" variant suffix; packages without
// tests are absent.
func LoadTests(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, true, patterns)
}

func load(dir string, tests bool, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"-deps", "-export", listFields}
	if tests {
		args = append(args, "-test")
	}
	entries, err := goList(dir, append(args, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(entries))
	var targets []listEntry
	for _, e := range entries {
		if e.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", e.ImportPath, e.Error.Err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if !e.DepOnly && !e.Standard && (e.ForTest != "") == tests {
			targets = append(targets, e)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	conf := checkerConfig(fset, exports, nil)
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		c := conf
		if len(t.ImportMap) > 0 {
			// A test variant may import test builds of other packages.
			c = checkerConfig(fset, exports, t.ImportMap)
		}
		path, _, _ := strings.Cut(t.ImportPath, " [")
		pkg, err := checkSource(fset, c, path, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir type-checks the single package rooted at pkgDir (outside any
// build-aware walk — fixture trees under testdata, for instance). Imports
// are resolved from export data compiled on demand for the transitive
// closure of the package's import paths, so fixtures may import anything
// the Go installation provides. moduleDir anchors the `go list`
// invocations (any directory inside a module with a go.mod works).
func LoadDir(moduleDir, pkgDir string) (*Package, error) {
	fset := token.NewFileSet()
	matches, err := filepath.Glob(filepath.Join(pkgDir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	var files []*ast.File
	var names []string
	imports := map[string]bool{}
	for _, m := range matches {
		f, err := parser.ParseFile(fset, m, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		names = append(names, filepath.Base(m))
		for _, imp := range f.Imports {
			p, err := unquoteImport(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			imports[p] = true
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no .go files in %s", pkgDir)
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		args := append([]string{"-deps", "-export", listFields}, sortedKeys(imports)...)
		entries, err := goList(moduleDir, args...)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.Export != "" {
				exports[e.ImportPath] = e.Export
			}
		}
	}
	conf := checkerConfig(fset, exports, nil)
	return checkParsed(fset, conf, filepath.Base(pkgDir), pkgDir, names, files)
}

func unquoteImport(q string) (string, error) {
	if len(q) >= 2 && q[0] == '"' && q[len(q)-1] == '"' {
		return q[1 : len(q)-1], nil
	}
	return "", fmt.Errorf("load: malformed import path %s", q)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkerConfig builds a types.Config whose importer reads the gc export
// data files recorded in exports, for import paths rewritten by importMap.
func checkerConfig(fset *token.FileSet, exports, importMap map[string]string) *types.Config {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[cmp.Or(importMap[path], path)]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q (is it imported by the listed packages?)", path)
		}
		return os.Open(f)
	}
	return &types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
}

// checkSource parses goFiles from dir and type-checks them as importPath.
func checkSource(fset *token.FileSet, conf *types.Config, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, gf := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, gf), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return checkParsed(fset, conf, importPath, dir, goFiles, files)
}

func checkParsed(fset *token.FileSet, conf *types.Config, importPath, dir string, goFiles []string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var firstErr error
	cfg := *conf
	cfg.Error = func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	pkg, err := cfg.Check(importPath, fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", importPath, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", importPath, err)
	}
	name := pkg.Name()
	if name == "" && len(goFiles) > 0 {
		return nil, errors.New("load: package has no name")
	}
	return &Package{
		ImportPath: importPath,
		Name:       name,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      pkg,
		TypesInfo:  info,
	}, nil
}
