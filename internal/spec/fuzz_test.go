package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSpecParse throws arbitrary documents at Parse, seeded with the
// example specs. Parse must never panic; a spec it accepts must survive
// Marshal → Parse unchanged and diff empty against itself.
func FuzzSpecParse(f *testing.F) {
	seeds, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed specs: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		out, err := s.Marshal()
		if err != nil {
			t.Fatalf("accepted spec fails to marshal: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(Marshal(s)) refused: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", s, back)
		}
		if c := Diff(s, s); !c.Empty() {
			t.Fatalf("spec diffs non-empty against itself: %s", c)
		}
	})
}
