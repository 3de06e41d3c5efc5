package lint

import (
	"bufio"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sdnfv/internal/lint/load"
)

// TestNoUncalledExports guards against exported API that nothing calls.
// It lists every exported func, method, type and var of the root module
// that no non-test file of the root module and no file of the
// cmd/sdnfv-bench module references, skipping methods that satisfy an
// interface (String, flag.Value.Set, the NF methods, ...), and compares
// the list with testdata/uncalled_exports.txt: the reviewed keep-list of
// declarations only tests use, one reason per line. Adding such an
// export, or giving a listed one a caller, fails until the file agrees.
func TestNoUncalledExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	benchDir := filepath.Join(root, "cmd", "sdnfv-bench")
	bench, err := load.LoadDir(benchDir, benchDir)
	if err != nil {
		t.Fatal(err)
	}
	got := uncalledExports(pkgs, append(pkgs, bench))

	keep, err := readKeepList(filepath.Join("testdata", "uncalled_exports.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if _, ok := keep[name]; !ok {
			t.Errorf("%s is exported but only tests use it: delete it, unexport it, or list it with a reason in testdata/uncalled_exports.txt", name)
		}
		delete(keep, name)
	}
	for name := range keep {
		t.Errorf("testdata/uncalled_exports.txt lists %s, which is gone or now has a caller: drop the line", name)
	}
}

// readKeepList parses "name  reason" lines; blank lines and #-comments
// are skipped, and every entry must carry a reason.
func readKeepList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keep := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, &os.PathError{Op: "parse", Path: path, Err: os.ErrInvalid}
		}
		keep[name] = reason
	}
	return keep, sc.Err()
}

// uncalledExports returns, sorted, the exported declarations of decls
// that no package of refs references. Names read "<dir>.<Name>" for
// package-level objects and "<dir>.<Type>.<Method>" for methods, with
// <dir> the import path inside the module.
//
// Each package is source-checked against its dependencies' export data,
// so one declaration appears as several types.Object values across
// packages; objects are therefore matched by name, and interface
// satisfaction by method name and signature string.
func uncalledExports(decls, refs []*load.Package) []string {
	used := map[string]bool{}
	ifaces := map[string][]*types.Interface{} // method name -> interfaces declaring it
	seenPkg := map[*types.Package]bool{}
	var addIfaces func(p *types.Package)
	addIfaces = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				addIface(ifaces, tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addIfaces(imp)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	addIface(ifaces, errType)
	// errors.Is/As call Unwrap through an interface errors declares
	// inside a function body, out of reach of the scope walk below.
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil,
		nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	addIface(ifaces, types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	for _, p := range refs {
		addIfaces(p.Types)
		for _, tv := range p.TypesInfo.Types {
			addIface(ifaces, tv.Type)
		}
		for _, obj := range p.TypesInfo.Uses {
			if k := objKey(obj); k != "" {
				used[k] = true
			}
		}
	}

	var out []string
	for _, p := range decls {
		scope := p.Types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			switch obj.(type) {
			case *types.Func, *types.Var, *types.TypeName:
			default:
				continue
			}
			if k := objKey(obj); obj.Exported() && !used[k] {
				out = append(out, k)
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if k := objKey(m); m.Exported() && !used[k] && !satisfiesInterface(named, m, ifaces) {
					out = append(out, k)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// addIface records t's methods when t is a non-empty interface.
func addIface(ifaces map[string][]*types.Interface, t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		for _, seen := range ifaces[name] {
			if seen == it {
				return
			}
		}
		ifaces[name] = append(ifaces[name], it)
	}
}

// satisfiesInterface reports whether m is one of the methods by which T
// or *T implements some interface.
func satisfiesInterface(named *types.Named, m *types.Func, ifaces map[string][]*types.Interface) bool {
	mset := types.NewMethodSet(types.NewPointer(named))
	for _, it := range ifaces[m.Name()] {
		ok := true
		for i := 0; i < it.NumMethods() && ok; i++ {
			want := it.Method(i)
			sel := mset.Lookup(want.Pkg(), want.Name())
			ok = sel != nil && sigString(sel.Obj().Type()) == sigString(want.Type())
		}
		if ok {
			return true
		}
	}
	return false
}

// sigString renders a method signature's parameter and result types,
// without names, package-qualified by import path.
func sigString(t types.Type) string {
	sig := t.(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// objKey names a package-level object or method of the module; other
// objects (locals, fields, other modules) have no key.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path, ok := strings.CutPrefix(obj.Pkg().Path(), "sdnfv/")
	if !ok {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if n, ok := rt.(*types.Named); ok {
				return path + "." + n.Obj().Name() + "." + f.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}
