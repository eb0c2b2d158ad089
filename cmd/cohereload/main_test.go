package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"swcc/internal/fault"
)

// TestLoadRunProducesReport runs a short two-scenario load against the
// in-process daemon and checks the report shape: both scenarios present,
// sane counts, ordered percentiles, and the -out file byte-identical to
// stdout.
func TestLoadRunProducesReport(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	err := run([]string{
		"-c", "4", "-d", "300ms", "-hit-ratios", "1,0",
		"-warm-pool", "8", "-procs", "8", "-out", outPath,
	}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not the report JSON: %v\n%s", err, stdout.String())
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("want 2 scenarios, got %d", len(rep.Scenarios))
	}
	for _, s := range rep.Scenarios {
		if s.Requests == 0 {
			t.Errorf("%s: no requests completed", s.Label)
		}
		if s.Errors != 0 {
			t.Errorf("%s: %d errors under a healthy local daemon", s.Label, s.Errors)
		}
		l := s.Latency
		if !(l.P50 <= l.P90 && l.P90 <= l.P99 && l.P99 <= l.Max) {
			t.Errorf("%s: percentiles out of order: %+v", s.Label, l)
		}
		if l.P50 <= 0 {
			t.Errorf("%s: nonpositive p50 %v", s.Label, l.P50)
		}
	}

	fileData, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileData, stdout.Bytes()) {
		t.Error("-out file differs from stdout report")
	}
}

// TestMissKeysDoNotRepeat pins the hit-ratio mechanism's miss half: the
// counter-derived workloads stay distinct for far more draws than a
// bench window issues.
func TestMissKeysDoNotRepeat(t *testing.T) {
	seen := make(map[float64]bool, 100000)
	for n := uint64(1); n <= 100000; n++ {
		v := missShd(n)
		if v <= 0 || v >= 1 {
			t.Fatalf("missShd(%d) = %v, outside (0,1)", n, v)
		}
		if seen[v] {
			t.Fatalf("missShd repeated a key at n=%d", n)
		}
		seen[v] = true
	}
}

// TestBadFlags checks malformed configuration errors out before any load
// is generated.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-hit-ratios", "1.5"},
		{"-hit-ratios", "nope"},
		{"-mix", "point"},
		{"-mix", "bogus:1"},
		{"-mix", "point:0,curve:0,sweep:0"},
		{"-c", "0"},
		{"-chaos", "-jobs"},
		{"-chaos", "-gw"},
		{"-jobs", "-gw"},
		{"-gw", "-addr", "localhost:8080"},
		{"positional"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted; want error", args)
		}
	}
}

// TestWorkerSeedDerivation pins the per-worker seed fix. The old
// cfg.Seed+worker derivation made adjacent runs replay each other's
// schedules (seed 1's worker 1 was seed 2's worker 0); the hashed
// derivation must keep every (seed, worker) stream distinct, and stay
// bit-stable so a chaos schedule can be replayed from its flags.
func TestWorkerSeedDerivation(t *testing.T) {
	golden := map[int]int64{
		0: 9129838320742759465,
		1: 2139811525164838579,
		2: 4875857236239627170,
		3: -8199743362588960697,
	}
	for w, want := range golden {
		if got := workerSeed(42, w); got != want {
			t.Errorf("workerSeed(42, %d) = %d, want %d — the schedule is no longer replayable", w, got, want)
		}
	}
	if workerSeed(1, 1) == workerSeed(2, 0) {
		t.Error("adjacent-run collision is back: workerSeed(1,1) == workerSeed(2,0)")
	}
	seen := map[int64]bool{}
	for seed := int64(0); seed < 8; seed++ {
		for w := 0; w < 64; w++ {
			s := workerSeed(seed, w)
			if seen[s] {
				t.Fatalf("duplicate worker seed at (seed=%d, worker=%d)", seed, w)
			}
			seen[s] = true
		}
	}
}

// TestMergeIntoReplacesLabels: rerunning a drill against an existing
// -out report must replace its old scenarios in place, not append
// duplicate labels for benchdiff to misread, while unseen labels append
// and non-cohereload files are left out of the merge.
func TestMergeIntoReplacesLabels(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH.json")
	prev := report{Tool: "cohereload", Scenarios: []summary{
		{Label: "hit_ratio_0.95", RPS: 100},
		{Label: "jobs_stream", RPS: 200},
	}}
	data, err := json.Marshal(prev)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got := mergeInto(out, report{Tool: "cohereload", Scenarios: []summary{
		{Label: "jobs_stream", RPS: 300},
		{Label: "jobs_cancel", RPS: 400},
	}})
	if len(got.Scenarios) != 3 {
		t.Fatalf("merged %d scenarios, want 3 (replace, not append): %+v", len(got.Scenarios), got.Scenarios)
	}
	if got.Scenarios[1].Label != "jobs_stream" || got.Scenarios[1].RPS != 300 {
		t.Errorf("jobs_stream not replaced in place: %+v", got.Scenarios)
	}
	if got.Scenarios[2].Label != "jobs_cancel" || got.Scenarios[2].RPS != 400 {
		t.Errorf("new label not appended: %+v", got.Scenarios)
	}

	// A non-cohereload file (e.g. a stale test2json record) is not a
	// merge target; the fresh report stands alone.
	if err := os.WriteFile(out, []byte(`{"Time": "t", "Action": "start"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got = mergeInto(out, report{Tool: "cohereload", Scenarios: []summary{{Label: "x"}}})
	if len(got.Scenarios) != 1 || got.Scenarios[0].Label != "x" {
		t.Errorf("non-cohereload file merged: %+v", got.Scenarios)
	}
}

// TestGwRun is the in-process version of `make gw-smoke`: the gateway
// drill must pass its own gates (affinity >= 1.5x round-robin's backend
// hit ratio, with p99 no worse in the median of the alternating rounds;
// clean failover; zero-solve warm restart) and emit all four gateway
// scenarios.
func TestGwRun(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "gw.json")
	var stdout bytes.Buffer
	err := run([]string{"-gw", "-c", "4", "-d", "400ms", "-out", outPath}, &stdout, io.Discard)
	if err != nil {
		t.Fatalf("gateway drill failed its gate: %v", err)
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not the report JSON: %v\n%s", err, stdout.String())
	}
	byLabel := map[string]summary{}
	for _, s := range rep.Scenarios {
		byLabel[s.Label] = s
	}
	for _, want := range []string{"gw_affinity", "gw_roundrobin", "gw_failover", "gw_warm_restart"} {
		if _, ok := byLabel[want]; !ok {
			t.Fatalf("scenario %q missing from report: %+v", want, rep.Scenarios)
		}
	}
	aff, rr := byLabel["gw_affinity"], byLabel["gw_roundrobin"]
	if aff.BackendHitRatio < gwHitRatioGate*rr.BackendHitRatio {
		t.Errorf("drill passed but recorded hit ratios violate the gate: affinity %.3f vs roundrobin %.3f",
			aff.BackendHitRatio, rr.BackendHitRatio)
	}
	if fo := byLabel["gw_failover"]; fo.StatusCounts["500"] != 0 || fo.StatusCounts["502"] != 0 {
		t.Errorf("failover scenario recorded 5xx: %v", fo.StatusCounts)
	}
	if wr := byLabel["gw_warm_restart"]; wr.Mix["restored_demand"] == 0 || wr.Mix["restored_curve"] == 0 {
		t.Errorf("warm restart restored nothing: %v", wr.Mix)
	}
}

// TestGwP99GateTripsOnRegression shows the median-of-rounds p99 gate
// still catches the regression it exists for: latency injected into
// the affinity fleet's backends only (3% of solves sleep 25ms, so its
// p99 sits on the sleep) must fail the gate, while the structural
// hit-ratio gate, checked first, still passes.
func TestGwP99GateTripsOnRegression(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 11, LatencyP: 0.03, Latency: 25 * time.Millisecond})
	aff, rr, ratios, err := gwCompare(4, 200*time.Millisecond, 1, inj)
	if err != nil {
		t.Fatal(err)
	}
	if len(ratios) != gwRounds {
		t.Fatalf("%d per-round ratios, want %d", len(ratios), gwRounds)
	}
	err = gwCompareGate(aff, rr, ratios)
	if !errors.Is(err, errGwP99) {
		t.Fatalf("gate = %v, want the p99 gate to trip (ratios %.2f)", err, ratios)
	}
	t.Logf("gate tripped as it should: %v", err)
	if latencies, _, _ := inj.Counts(); latencies == 0 {
		t.Fatal("injector fired no latency; the test measured nothing")
	}
}

// TestChaosRun is the in-process version of `make chaos-smoke`: the
// drill must pass its own gate (no 500s, nonzero sheds) and emit the
// chaos report block with both fleets present.
func TestChaosRun(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "chaos.json")
	var stdout bytes.Buffer
	err := run([]string{"-chaos", "-c", "12", "-d", "700ms", "-out", outPath}, &stdout, io.Discard)
	if err != nil {
		t.Fatalf("chaos drill failed its gate: %v", err)
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not the report JSON: %v\n%s", err, stdout.String())
	}
	if len(rep.Scenarios) != 2 || rep.Scenarios[0].Label != "chaos_patient" ||
		rep.Scenarios[1].Label != "chaos_abandoning" {
		t.Fatalf("want the patient and abandoning fleets, got %+v", rep.Scenarios)
	}
	if rep.Chaos == nil {
		t.Fatal("report has no chaos block")
	}
	if rep.Chaos.Sheds == 0 {
		t.Error("drill shed nothing yet passed — the gate is broken")
	}
	if rep.Chaos.ServerError500s != 0 {
		t.Errorf("daemon answered %d 500s under chaos", rep.Chaos.ServerError500s)
	}
	for _, s := range rep.Scenarios {
		if s.StatusCounts["200"] == 0 {
			t.Errorf("%s: no request ever succeeded", s.Label)
		}
		if s.StatusCounts["500"] != 0 {
			t.Errorf("%s: clients saw %d 500s", s.Label, s.StatusCounts["500"])
		}
	}
	if rep.Scenarios[1].ClientTimeouts == 0 {
		t.Error("abandoning fleet never abandoned a request")
	}
}
