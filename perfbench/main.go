// Command perfbench is the repository's benchmark. It boots the system
// in-process, drives one named workload for a fixed time, checks every
// output, and prints each metric by name and unit. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the run measures half the window untraced
// and half traced, and reports the per-layer metrics from spans it
// records around each layer's entry points, from the counters the
// layers expose, and from probes of single layers.
//
// Usage:
//
//	perfbench -workload hot_bus|cold_mixed|gw_affinity|sim_validate|all
//	          -seed N -seconds S -trace 0|1 [-out DIR]
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run sets its workload up at least minSetups times, and more while
// the set-ups have taken less than setupBudget of wall time, up to
// maxSetups; setup_s is the median CPU time of one set-up, and the last
// set-up is the one measured. Wall time, and a millisecond set-up's
// share of it, follows the host's scheduling delays from one round of
// runs to the next; CPU time is the work set-up does.
const (
	minSetups   = 7
	maxSetups   = 25
	setupBudget = 500 * time.Millisecond
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_cpu_s", "1/cpu-s"},
	{"rows_per_cpu_s", "1/cpu-s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload does not pass through reads 0.
var perLayer = []metricDef{
	{"client.req_us", "us"},
	{"http.rtt_self_us", "us"},
	{"layers.residual_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"gw.self_us", "us"},
	{"gw.backend_rtt_us", "us"},
	{"gw.backend_hit_ratio", "ratio"},
	{"gw.sends_per_req", "ratio"},
	{"gw.retries", "count"},
	{"gw.respills", "count"},
	{"gw.bad_gateway", "count"},
	{"serve.handler_point_p50_us", "us"},
	{"serve.handler_point_tail_us", "us"},
	{"serve.handler_curve_p50_us", "us"},
	{"serve.handler_curve_tail_us", "us"},
	{"serve.handler_sweep_p50_us", "us"},
	{"serve.handler_sweep_tail_us", "us"},
	{"serve.handler_job_submit_p50_us", "us"},
	{"serve.handler_job_submit_tail_us", "us"},
	{"serve.handler_job_stream_p50_us", "us"},
	{"serve.handler_job_stream_tail_us", "us"},
	{"serve.self_us", "us"},
	{"serve.stage.validate_us", "us"},
	{"serve.stage.cache_lookup_us", "us"},
	{"serve.stage.singleflight_wait_us", "us"},
	{"serve.stage.solve_us", "us"},
	{"serve.handler_allocs_per_req", "count"},
	{"serve.handler_bytes_per_req", "B"},
	{"serve.sheds", "count"},
	{"serve.cancels", "count"},
	{"jobs.first_row_ms", "ms"},
	{"jobs.batch_gap_p50_ms", "ms"},
	{"sweep.demand_hit_ratio", "ratio"},
	{"sweep.mva_hit_ratio", "ratio"},
	{"sweep.curve_extends", "count"},
	{"sweep.curve_full_solves", "count"},
	{"sweep.evictions", "count"},
	{"sweep.dedup_joins", "count"},
	{"sweep.buspoint_hit_ns", "ns"},
	{"sweep.buspoint_miss_us", "us"},
	{"kernel.demand_ns", "ns"},
	{"kernel.mva_us", "us"},
	{"tracegen.refs_per_s", "1/s"},
	{"measure.extract_s", "s"},
	{"sim.refs_per_s", "1/s"},
	{"sim.runs", "count"},
	{"sim.model_err_max", "ratio"},
	{"sim.pass_wall_s", "s"},
	{"experiments.fig1_s", "s"},
	{"experiments.fig2_s", "s"},
	{"experiments.fig3_s", "s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.allocs_per_op", "count"},
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: want -workload, -seed, -seconds > 0 and -trace 0|1, no other arguments")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	fmt.Fprintln(stdout, hostFacts())
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, n := range names {
		def, ok := workloadByName(n)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", n, strings.Join(workloadNames(), ", "))
			return 2
		}
		res, err := runWorkload(def, *seed, *seconds, *traced == 1, *out, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		if len(names) == 1 {
			all = res
			break
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: encoding %s result: %v\n", n, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s %s\n", n, line)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[n+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !all.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// hostFacts describes the machine the numbers come from.
func hostFacts() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s; the load generator shares these CPUs with the servers (one process)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version())
}

// measured runs one window from a collected heap, recording the peak
// live heap and the runtime's costs over it.
func measured(inst instance, seconds float64, traced bool) (*window, error) {
	runtime.GC()
	hs := startHeapSampler()
	r0 := readRuntime()
	c0 := cpuSeconds()
	w, err := inst.run(seconds, traced)
	c1 := cpuSeconds()
	r1 := readRuntime()
	peak := hs.stop()
	if err != nil {
		return nil, err
	}
	w.heapPeak, w.rt, w.cpuSec = peak, runtimeDelta(r0, r1), c1-c0
	return w, nil
}

// runWorkload sets def up, measures the last set-up and prints its
// report.
func runWorkload(def workloadDef, seed int64, seconds float64, traced bool, out string, stdout io.Writer) (result, error) {
	var inst instance
	var setups, walls []float64
	var spent time.Duration
	for len(setups) < maxSetups && (len(setups) < minSetups || spent < setupBudget) {
		if inst != nil {
			inst.stop()
		}
		runtime.GC()
		t0, c0 := time.Now(), cpuSeconds()
		in, err := def.setup(seed)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, cpuSeconds()-c0)
		walls = append(walls, d.Seconds())
		inst = in
	}
	defer inst.stop()
	setupS := median(setups)

	fmt.Fprintf(stdout, "workload %s: %s\n", def.name, def.why)
	if !traced {
		w, err := measured(inst, seconds, false)
		if err != nil {
			return result{}, err
		}
		res := newResult(w)
		p50, _ := rankOr0(w.latMs, 50)
		p90, _ := rankOr0(w.latMs, 90)
		e2e := map[string]float64{
			"setup_s":              setupS,
			"throughput_per_cpu_s": perCPU(w.ok, w.cpuSec),
			"rows_per_cpu_s":       perCPU(w.rows, w.cpuSec),
			"latency_p50_ms":       p50,
			"latency_p90_ms":       p90,
			"heap_peak_mb":         w.heapPeak / (1 << 20),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
		printReport(stdout, def.name, res, w, setups, walls)
		return res, nil
	}

	w0, err := measured(inst, seconds/2, false)
	if err != nil {
		return result{}, err
	}
	w1, err := measured(inst, seconds/2, true)
	if err != nil {
		return result{}, err
	}
	layers := map[string]float64{}
	for k, v := range w1.layers {
		layers[k] = v
	}
	if err := inst.probe(layers); err != nil {
		return result{}, fmt.Errorf("probe: %w", err)
	}
	// The runtime's costs come from the untraced half, so the tracer's
	// own allocations do not count against the program.
	layers["runtime.gc_cpu_frac"] = w0.rt.gcCPUFrac
	layers["runtime.gc_pause_p99_us"] = w0.rt.gcPauseP99us
	layers["runtime.sched_latency_p99_us"] = w0.rt.schedP99us
	if w0.ops > 0 {
		layers["runtime.allocs_per_op"] = float64(w0.rt.allocs) / float64(w0.ops)
	}
	u, _ := rankOr0(w0.latMs, 50)
	t, _ := rankOr0(w1.latMs, 50)
	if u > 0 {
		layers["trace.overhead_pct"] = (t - u) / u * 100
	}
	res := newResult(w0)
	res.Attempted += w1.attempted
	res.Failed += w1.failed
	res.Correct = res.Failed == 0
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{Value: layers[m.name], Unit: m.unit}
	}
	for _, e := range append(w0.errs, w1.errs...) {
		fmt.Fprintf(stdout, "  failed: %s\n", e)
	}
	fmt.Fprintf(stdout, "traced run: untraced p50 %.4f ms, traced p50 %.4f ms, tracing overhead %+.1f%%\n", u, t, layers["trace.overhead_pct"])
	for _, m := range perLayer {
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", m.name, layers[m.name], m.unit)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(out, "spans-"+def.name+".jsonl")
	if err := writeSpans(path, w1.spans); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(w1.spans), path)
	return res, nil
}

// perCPU is n per CPU-second.
func perCPU(n int, cpuSec float64) float64 {
	if cpuSec <= 0 {
		return 0
	}
	return float64(n) / cpuSec
}

// rankOr0 is rank on a possibly empty sorted sample.
func rankOr0(sorted []float64, p float64) (float64, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	return rank(sorted, p)
}

func newResult(w *window) result {
	return result{Correct: w.failed == 0, Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metricValue{}}
}

// printReport prints every end-to-end metric, by name and unit, with the
// workload's own readings of them.
func printReport(stdout io.Writer, name string, res result, w *window, setups, walls []float64) {
	for _, e := range w.errs {
		fmt.Fprintf(stdout, "  failed: %s\n", e)
	}
	sort.Float64s(setups)
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, "  %-16s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(stdout, "  %-16s %14.6g (%d of %d operations failed)\n", "error_rate", rate, res.Failed, res.Attempted)
	pct, tailV := tail(w.latMs)
	fmt.Fprintf(stdout, "  %d latency samples, tail p%g %.6g ms; %d ok operations in %.6g CPU-s over a %gs window (%.6g/s wall)\n",
		len(w.latMs), pct, tailV, w.ok, w.cpuSec, w.seconds, float64(w.ok)/w.seconds)
	fmt.Fprintf(stdout, "  %d set-ups, median %.6g CPU-s (range %.6g..%.6g), median %.6g s wall\n",
		len(setups), median(setups), setups[0], setups[len(setups)-1], median(walls))
	switch name {
	case "cold_mixed":
		fmt.Fprintf(stdout, "  %-16s %14.6g 1/s wall (rows_per_cpu_s counts the same job rows)\n", "job_rows_per_s", float64(w.rows)/w.seconds)
	case "sim_validate":
		fmt.Fprintf(stdout, "  %-16s %14.6g s wall per Figures 1-3 pass (latency_p50_ms is its CPU time)\n", "validate_s", w.layers["sim.pass_wall_s"])
		fmt.Fprintf(stdout, "  %-16s %14.6g ratio (largest model-vs-simulation gap over fig1-3)\n", "model_err_max", w.layers["sim.model_err_max"])
	}
}
