package core

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestLevelParamsNames(t *testing.T) {
	for name, want := range map[string]Level{"low": Low, "mid": Mid, "middle": Mid, "high": High} {
		p, err := LevelParams(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p != ParamsAt(want) {
			t.Errorf("%s: got %+v, want level %v", name, p, want)
		}
	}
	for _, bad := range []string{"", "Mid", "extreme"} {
		if _, err := LevelParams(bad); err == nil {
			t.Errorf("level %q: want error", bad)
		}
	}
}

func TestWorkloadResolve(t *testing.T) {
	decode := func(body string) Workload {
		t.Helper()
		var w Workload
		if err := json.Unmarshal([]byte(body), &w); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return w
	}
	for body, want := range map[string]Params{
		`{}`:                       MiddleParams(),
		`{"level": "high"}`:        ParamsAt(High),
		`{"params": {}}`:           MiddleParams(),
		`{"params": {"shd": 0.4}}`: func() Params { p := MiddleParams(); p.Shd = 0.4; return p }(),
	} {
		got, err := decode(body).Resolve()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if got != want {
			t.Errorf("%s: got %+v, want %+v", body, got, want)
		}
	}
	for _, body := range []string{
		`{"level": "low", "params": {"shd": 0.2}}`,
		`{"level": "extreme"}`,
		`{"params": {"apl": 0.5}}`,
	} {
		if _, err := decode(body).Resolve(); err == nil {
			t.Errorf("%s: want error", body)
		}
	}
	// ReadParams shares the defaulting and validation.
	p, err := ReadParams(strings.NewReader(`{"shd": 0.4}`))
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := decode(`{"params": {"shd": 0.4}}`).Resolve(); p != w {
		t.Errorf("ReadParams %+v differs from Workload.Resolve %+v", p, w)
	}
}

func TestResolveSchemeKnobs(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	resolve := func(name string, k Knobs) (Scheme, error) { return SchemeSpec{Scheme: name, Knobs: k}.Resolve() }
	hy, err := resolve("hybrid", Knobs{LockFrac: f(0.6)})
	if err != nil {
		t.Fatal(err)
	}
	if def, _ := resolve("hybrid", Knobs{}); SchemeLabel(hy) == SchemeLabel(def) {
		t.Errorf("lockfrac ignored: %s", SchemeLabel(hy))
	}
	for _, tc := range []struct {
		name string
		k    Knobs
	}{
		{"firefly", Knobs{}},
		{"dragon", Knobs{LockFrac: f(0.5)}},
		{"hybrid", Knobs{UpdateFrac: f(0.5)}},
		{"hybrid", Knobs{LockFrac: f(0.5), UpdateFrac: f(0.5)}},
		{"hybrid", Knobs{LockFrac: f(1.5)}},
		{"hybrid-update", Knobs{UpdateFrac: f(-0.1)}},
	} {
		if _, err := resolve(tc.name, tc.k); err == nil {
			t.Errorf("%s %+v: want error", tc.name, tc.k)
		}
	}

	// A list shares its knobs: each goes only to the schemes that have it.
	list, err := ResolveSchemes([]string{"dragon", "hybrid", "hybrid-update"},
		Knobs{LockFrac: f(0.6), UpdateFrac: f(0.2)})
	if err != nil {
		t.Fatal(err)
	}
	hu, _ := resolve("hybrid-update", Knobs{UpdateFrac: f(0.2)})
	for i, want := range []string{"Dragon", SchemeLabel(hy), SchemeLabel(hu)} {
		if got := SchemeLabel(list[i]); got != want {
			t.Errorf("list[%d] = %s, want %s", i, got, want)
		}
	}
	if _, err := ResolveSchemes([]string{"dragon", "firefly"}, Knobs{}); err == nil {
		t.Error("unknown scheme in a list: want error")
	}
}
