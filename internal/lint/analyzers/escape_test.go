package analyzers

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestHotpathNoHeapMoves closes the gap between the hotpath analyzer's
// syntactic no-alloc proof and what the compiler does: a local whose
// address reaches an indirect call (say, a *Desc handed to the egress
// sink) is moved to the heap, one allocation per execution, with no
// make/new/& in sight. The test builds every package that has
// //sdnfv:hotpath functions with -gcflags=-m and fails on any
// "moved to heap" inside an annotated function's body.
func TestHotpathNoHeapMoves(t *testing.T) {
	root := moduleRoot(t)
	list, err := exec.Command("go", "list", "-C", root, "-f", "{{.ImportPath}} {{.Dir}} {{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type span struct {
		fn         string
		start, end int
	}
	bodies := map[string][]span{} // absolute file -> annotated bodies
	var pkgs []string
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		fields := strings.Fields(line)
		annotated := false
		for _, name := range fields[2:] {
			path := filepath.Join(fields[1], name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !hasHotpathDirective(fn) {
					continue
				}
				bodies[path] = append(bodies[path], span{fn.Name.Name,
					fset.Position(fn.Body.Lbrace).Line, fset.Position(fn.Body.Rbrace).Line})
				annotated = true
			}
		}
		if annotated {
			pkgs = append(pkgs, fields[0])
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("found no //sdnfv:hotpath functions")
	}

	cmd := exec.Command("go", append([]string{"build", "-C", root, "-gcflags=-m"}, pkgs...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	moved := regexp.MustCompile(`^(.+\.go):(\d+):\d+: moved to heap: (\S+)$`)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := moved.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		line, _ := strconv.Atoi(m[2])
		for _, b := range bodies[file] {
			if line >= b.start && line <= b.end {
				t.Errorf("%s:%d: hotpath %s: %s moved to heap (one allocation per execution)", m[1], line, b.fn, m[3])
			}
		}
	}
}

// moduleRoot is the directory of the go.mod governing the test.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}
