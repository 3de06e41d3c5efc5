package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sdnfv/internal/lint/load"
)

// TestNoUnsetOptions guards against configuration knobs nothing turns.
// It lists every exported field of an exported struct type named
// *Config, *Options or *Timings in the root module that no composite
// literal key, assignment, increment or address-of sets outside the
// declaring package's own non-test files — the package filling its own
// defaults is not a caller choosing a value. Test files of either
// module count as setters. The list is compared with
// testdata/unset_options.txt, the reviewed keep-list: a new option no
// caller sets must become a constant or be listed with a reason.
func TestNoUnsetOptions(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	tests, err := load.LoadTests(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	benchDir := filepath.Join(root, "cmd", "sdnfv-bench")
	bench, err := load.LoadDir(benchDir, benchDir) // its _test.go files included
	if err != nil {
		t.Fatal(err)
	}

	set := map[string]bool{}
	for _, p := range pkgs {
		markSetFields(p, set, func(owner, file string) bool { return owner != p.Types.Path() })
	}
	for _, p := range append(tests, bench) {
		markSetFields(p, set, func(_, file string) bool {
			return p == bench || strings.HasSuffix(file, "_test.go")
		})
	}
	var got []string
	for _, k := range optionFields(pkgs) {
		if !set[k] {
			got = append(got, k)
		}
	}

	keep, err := readKeepList(filepath.Join("testdata", "unset_options.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if _, ok := keep[name]; !ok {
			t.Errorf("option %s is never set outside its package's own code: make it a constant, or list it with a reason in testdata/unset_options.txt", name)
		}
		delete(keep, name)
	}
	for name := range keep {
		t.Errorf("testdata/unset_options.txt lists %s, which is gone or now set: drop the line", name)
	}
}

// optionFields returns, sorted, "<dir>.<Type>.<Field>" for the exported
// fields of the exported *Config/*Options/*Timings structs of pkgs.
func optionFields(pkgs []*load.Package) []string {
	var out []string
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() ||
				!(strings.HasSuffix(n, "Config") || strings.HasSuffix(n, "Options") || strings.HasSuffix(n, "Timings")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					out = append(out, fieldKey(tn, f.Name()))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// markSetFields records in set every struct field p sets: a composite
// literal key (or unkeyed position), the left side of an assignment or
// ++/--, or an operand of & (a flag or decoder writing through it).
// count filters by the owning package path and the file of the site.
func markSetFields(p *load.Package, set map[string]bool, count func(owner, file string) bool) {
	mark := func(owner *types.TypeName, field, file string) {
		if owner != nil && owner.Pkg() != nil && count(owner.Pkg().Path(), file) {
			set[fieldKey(owner, field)] = true
		}
	}
	markSel := func(e ast.Expr, file string) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if s, ok := p.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
			mark(fieldOwner(s), sel.Sel.Name, file)
		}
	}
	for _, f := range p.Files {
		file := filepath.Base(p.Fset.Position(f.Pos()).Filename)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				named, st := namedStruct(p.TypesInfo.TypeOf(n))
				if st == nil {
					return true
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							mark(named, id.Name, file)
						}
					} else if i < st.NumFields() {
						mark(named, st.Field(i).Name(), file)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markSel(lhs, file)
				}
			case *ast.IncDecStmt:
				markSel(n.X, file)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markSel(n.X, file)
				}
			}
			return true
		})
	}
}

// fieldOwner returns the named struct type that declares the field a
// selection reaches, following embedded fields.
func fieldOwner(s *types.Selection) *types.TypeName {
	t := s.Recv()
	idx := s.Index()
	for i, j := range idx {
		named, st := namedStruct(t)
		if st == nil {
			return nil
		}
		if i == len(idx)-1 {
			return named
		}
		t = st.Field(j).Type()
	}
	return nil
}

// namedStruct unwraps pointers and aliases to a named struct type; both
// results are nil for anything else.
func namedStruct(t types.Type) (*types.TypeName, *types.Struct) {
	if t == nil {
		return nil, nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return named.Origin().Obj(), st
}

// fieldKey names a field "<dir>.<Type>.<Field>", with <dir> the import
// path inside the module (as objKey names declarations).
func fieldKey(owner *types.TypeName, field string) string {
	return strings.TrimPrefix(owner.Pkg().Path(), "sdnfv/") + "." + owner.Name() + "." + field
}
