package telemetry

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindCounter:   "counter",
		KindGauge:     "gauge",
		KindHistogram: "histogram",
		Kind(99):      "untyped",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestGatherMergesFamiliesAndSorts(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(CollectorFunc(func() []Family {
		return []Family{
			{Name: "zz_total", Kind: KindCounter, Help: "first",
				Samples: []Sample{{Labels: []Label{{"host", "a"}}, Value: 1}}},
			{Name: "aa_gauge", Kind: KindGauge,
				Samples: []Sample{{Value: 5}}},
		}
	}))
	r.MustRegister(CollectorFunc(func() []Family {
		return []Family{
			{Name: "zz_total", Kind: KindCounter, Help: "second",
				Samples: []Sample{{Labels: []Label{{"host", "b"}}, Value: 2}}},
		}
	}))
	fams := r.Gather()
	if len(fams) != 2 {
		t.Fatalf("Gather returned %d families, want 2", len(fams))
	}
	if fams[0].Name != "aa_gauge" || fams[1].Name != "zz_total" {
		t.Fatalf("families not sorted: %q, %q", fams[0].Name, fams[1].Name)
	}
	zz := fams[1]
	if len(zz.Samples) != 2 {
		t.Fatalf("merged family has %d samples, want 2", len(zz.Samples))
	}
	if zz.Help != "first" {
		t.Fatalf("first emitter should fix help, got %q", zz.Help)
	}
}

func TestGatherKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(
		CollectorFunc(func() []Family { return []Family{{Name: "m", Kind: KindCounter}} }),
		CollectorFunc(func() []Family { return []Family{{Name: "m", Kind: KindGauge}} }),
	)
	defer func() {
		if recover() == nil {
			t.Fatal("Gather did not panic on kind mismatch")
		}
	}()
	r.Gather()
}

func TestMustRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister(nil) did not panic")
		}
	}()
	NewRegistry().MustRegister(nil)
}

func TestFamilyBuilderPreservesEmitOrder(t *testing.T) {
	b := newFamilyBuilder()
	b.add("b_total", "", KindCounter, Sample{Value: 1})
	b.add("a_gauge", "", KindGauge, Sample{Value: 2})
	b.add("b_total", "", KindCounter, Sample{Value: 3})
	fams := b.families()
	if len(fams) != 2 {
		t.Fatalf("got %d families, want 2", len(fams))
	}
	if fams[0].Name != "b_total" || fams[1].Name != "a_gauge" {
		t.Fatalf("emit order lost: %q, %q", fams[0].Name, fams[1].Name)
	}
	if len(fams[0].Samples) != 2 {
		t.Fatalf("b_total has %d samples, want 2", len(fams[0].Samples))
	}
}

func TestWritePrometheusEscapesAndFormats(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(CollectorFunc(func() []Family {
		return []Family{{
			Name: "esc_total", Kind: KindCounter, Help: `help with \ and
newline`,
			Samples: []Sample{{
				Labels: []Label{{"weird", "a\\b\"c\nd"}},
				Value:  42,
			}},
		}}
	}))
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wantLines := []string{
		`# HELP esc_total help with \\ and\nnewline`,
		`# TYPE esc_total counter`,
		`esc_total{weird="a\\b\"c\nd"} 42`,
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w+"\n") {
			t.Errorf("output missing line %q:\n%s", w, out)
		}
	}
}
