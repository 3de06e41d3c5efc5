package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sdnfv/internal/reconcile"
	"sdnfv/internal/spec"
)

func TestRegisterActionValidationAndDispatch(t *testing.T) {
	r := NewRegistry()
	ok := func(_ context.Context, body []byte) (any, error) {
		return map[string]string{"got": string(body)}, nil
	}
	if err := r.RegisterAction("/state/x", ok); err == nil {
		t.Error("path outside /apply/ accepted")
	}
	if err := r.RegisterAction("/apply/", ok); err == nil {
		t.Error("bare /apply/ accepted")
	}
	if err := r.RegisterAction("/apply/x", nil); err == nil {
		t.Error("nil handler accepted")
	}
	if err := r.RegisterAction("/apply/x", ok); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterAction("/apply/x", ok); !errors.Is(err, ErrDuplicatePath) {
		t.Errorf("duplicate registration: got %v, want ErrDuplicatePath", err)
	}
	v, err := r.Apply(context.Background(), "/apply/x/", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if m := v.(map[string]string); m["got"] != "hi" {
		t.Fatalf("Apply payload = %v", m)
	}
	if _, err := r.Apply(context.Background(), "/apply/missing", nil); !errors.Is(err, ErrUnknownPath) {
		t.Errorf("unknown action: got %v, want ErrUnknownPath", err)
	}
}

func TestHandlerActionRouting(t *testing.T) {
	r := NewRegistry()
	r.MustRegisterAction("/apply/echo", func(_ context.Context, body []byte) (any, error) {
		if len(body) == 0 {
			return nil, errors.New("empty body")
		}
		return map[string]string{"echo": string(body)}, nil
	})
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	resp, err := http.Get(srv.URL + "/apply/echo")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /apply/echo: code=%d, want 405", resp.StatusCode)
	}

	code, body := post("/apply/echo", `{"a":1}`)
	if code != http.StatusOK || !strings.Contains(body, `{\"a\":1}`) {
		t.Fatalf("POST /apply/echo: code=%d body=%q", code, body)
	}
	code, body = post("/apply/echo", "")
	if code != http.StatusUnprocessableEntity || !strings.Contains(body, "empty body") {
		t.Fatalf("failing action: code=%d body=%q", code, body)
	}
	code, _ = post("/apply/nope", "x")
	if code != http.StatusNotFound {
		t.Fatalf("unknown action: code=%d, want 404", code)
	}
}

// nopCluster satisfies reconcile.Observer and reconcile.Actuators with
// a single always-empty host: every actuation succeeds and does nothing.
type nopCluster struct{}

func (nopCluster) Observe() reconcile.Observation {
	return reconcile.Observation{Hosts: map[string]reconcile.HostState{"a": {Alive: true}}}
}
func (nopCluster) Place(context.Context, *spec.Spec, spec.Service, string) error  { return nil }
func (nopCluster) Retire(context.Context, *spec.Spec, spec.Service, string) error { return nil }
func (nopCluster) Reroute(context.Context, *spec.Spec, map[string]string) error   { return nil }
func (nopCluster) SetBounds(context.Context, *spec.Spec, spec.Service, string) error {
	return nil
}

type fixedClock struct{}

func (fixedClock) Now() float64          { return 0 }
func (fixedClock) After(float64, func()) {}

const minimalSpecJSON = `{
  "version": 1,
  "name": "one-host",
  "hosts": [{"name": "a", "datapath": 1}],
  "services": [{"name": "fw", "id": 1, "nf": "firewall", "placement": ["a"]}],
  "edges": [
    {"from": "ingress", "to": "fw", "default": true},
    {"from": "fw", "to": "egress", "default": true}
  ],
  "ingress": {"host": "a", "port": 0},
  "egress_port": 1
}`

func TestRegisterReconcileSurfaces(t *testing.T) {
	r := NewRegistry()
	rec := reconcile.New(reconcile.Config{}, nopCluster{}, nopCluster{}, fixedClock{})
	RegisterReconcile(r, rec)

	// Before any generation: /state/spec reports generation 0.
	v, err := r.Show(context.Background(), PathSpec)
	if err != nil {
		t.Fatal(err)
	}
	if gen := v.(map[string]any)["generation"]; gen != 0 {
		t.Fatalf("empty /state/spec generation = %v", gen)
	}

	// Apply a spec through the action surface.
	v, err = r.Apply(context.Background(), PathApplySpec, []byte(minimalSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	out := v.(map[string]any)
	if out["generation"] != uint64(1) {
		t.Fatalf("apply generation = %v, want 1", out["generation"])
	}
	if changes := out["changes"].([]string); len(changes) == 0 {
		t.Fatal("apply returned empty change summary")
	}
	if _, err := r.Apply(context.Background(), PathApplySpec, []byte(`{"version": 9}`)); err == nil {
		t.Fatal("invalid spec accepted")
	}

	// Converge (place on tick 1, converged on tick 2) and check surfaces.
	rec.TickNow()
	rec.TickNow()
	v, err = r.Show(context.Background(), PathReconcile)
	if err != nil {
		t.Fatal(err)
	}
	st := v.(reconcile.Status)
	if st.Generation != 1 || st.Ticks != 2 {
		t.Fatalf("status = %+v", st)
	}
	v, err = r.Show(context.Background(), PathSpec)
	if err != nil {
		t.Fatal(err)
	}
	sp := v.(map[string]any)
	if sp["generation"] != uint64(1) {
		t.Fatalf("/state/spec generation = %v", sp["generation"])
	}
	if sp["spec"].(*spec.Spec).Name != "one-host" {
		t.Fatalf("/state/spec spec = %+v", sp["spec"])
	}

	fams := r.Gather()
	want := map[string]float64{
		"sdnfv_reconcile_generation":        1,
		"sdnfv_reconcile_ticks_total":       2,
		"sdnfv_reconcile_generations_total": 1,
	}
	for _, f := range fams {
		if wv, ok := want[f.Name]; ok {
			if f.Samples[0].Value != wv {
				t.Errorf("%s = %v, want %v", f.Name, f.Samples[0].Value, wv)
			}
			delete(want, f.Name)
		}
	}
	for name := range want {
		t.Errorf("metric %s missing from gather", name)
	}
	data, err := json.Marshal(r.Gather())
	if err != nil || len(data) == 0 {
		t.Fatalf("gather not serializable: %v", err)
	}
}
