package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"swcc/internal/core"
	"swcc/internal/queueing"
	"swcc/internal/serve"
	"swcc/internal/sweep"
)

// window is one timed window's measurements.
type window struct {
	seconds   float64
	latMs     []float64 // per primary operation that succeeded, sorted
	ok        int       // primary operations that succeeded
	rows      int       // result rows delivered
	ops       int       // every operation, for per-op runtime costs
	attempted int
	failed    int
	errs      []string
	heapPeak  float64 // bytes
	cpuSec    float64 // process CPU time over the window
	rt        rtDelta
	spans     []span
	layers    map[string]float64 // per-layer values this window measured
}

// instance is one set-up workload, ready to run timed windows.
type instance interface {
	// run measures one window of the given length, with spans recorded
	// when traced.
	run(seconds float64, traced bool) (*window, error)
	// probe measures the per-layer costs that need calls of their own,
	// after the windows.
	probe(layers map[string]float64) error
	stop()
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name  string
	why   string
	setup func(seed int64) (instance, error)
}

// hotScheme is the scheme of the historic cohereload load shape.
const hotScheme = "Software-Flush"

// The serving workloads' shapes.
var (
	hotShape = servingShape{
		conns: 2,
		spec: genSpec{Pool: 64, Mix: []string{"curve", "point", "point", "point", "point", "sweep"},
			Schemes: []string{hotScheme}, ProcsLo: 16, ProcsHi: 16, SweepPoints: 8, SampleEvery: 64},
	}
	coldShape = servingShape{
		conns: 1, jobs: true,
		cfg: serve.Config{CacheCap: coldCacheCap},
		spec: genSpec{Mix: []string{"point"}, Schemes: core.SchemeNames(),
			ProcsLo: 2048, ProcsHi: 4096, SampleEvery: 32},
	}
	gwShape = servingShape{
		conns: 2, backends: 2, gateway: true,
		cfg: serve.Config{CacheCap: 310},
		spec: genSpec{Pool: 512, Mix: []string{"point"}, Schemes: []string{hotScheme},
			ProcsLo: 1024, ProcsHi: 1024, SampleEvery: 64},
	}
)

var workloads = []workloadDef{
	{
		name:  "hot_bus",
		why:   "every answer is a memo hit and the kernel is ~1-2 us of a >100 us request, so serve and http do nearly all the work",
		setup: func(seed int64) (instance, error) { return setupServing(seed, hotShape) },
	},
	{
		name:  "cold_mixed",
		why:   "every interactive query misses at thousands of processors while grid jobs stream beside it, so kernel and the sweep insert/evict path dominate",
		setup: func(seed int64) (instance, error) { return setupServing(seed, coldShape) },
	},
	{
		name:  "gw_affinity",
		why:   "the only workload with the gateway hop: affinity routing over two capped backends whose pair, not either one, holds the key pool",
		setup: func(seed int64) (instance, error) { return setupServing(seed, gwShape) },
	},
	{
		name:  "sim_validate",
		why:   "the only workload through tracegen, measure and sim: the paper's Figures 1-3 model-vs-simulation passes",
		setup: setupSimValidate,
	},
}

// coldCacheCap bounds cold_mixed's memo caches so never-repeating keys
// insert and evict instead of growing the heap.
const coldCacheCap = 128

// coldJobProcs is the largest machine size of a cold_mixed grid job.
const coldJobProcs = 512

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// servingShape describes a serving workload.
type servingShape struct {
	conns    int  // interactive client connections
	jobs     bool // one more connection streams grid jobs
	backends int  // cohered backends (default 1)
	gateway  bool
	cfg      serve.Config
	spec     genSpec
}

type servingInst struct {
	shape   servingShape
	seed    int64
	f       *fleet
	owners  map[float64]string // pool key shd -> answering backend URL
	windows int
}

// setupServing boots the fleet and primes the warm pool; for cold_mixed,
// which has no pool, it fills the capped cache with cold keys and runs
// one small job through the stack instead.
func setupServing(seed int64, shape servingShape) (instance, error) {
	n := shape.backends
	if n == 0 {
		n = 1
	}
	f, err := bootFleet(n, shape.cfg, shape.gateway)
	if err != nil {
		return nil, err
	}
	inst := &servingInst{shape: shape, seed: seed, f: f}
	if shape.spec.Pool > 0 {
		keys := poolKeys(shape.spec, seed)
		owners, err := prime(f.front(), keys)
		if err != nil {
			f.stop()
			return nil, err
		}
		inst.owners = map[float64]string{}
		for i, k := range keys {
			inst.owners[k.Shd] = owners[i]
		}
	} else {
		// Fill the capped cache with cold keys of the workload's own
		// kind, so the window starts where every insert evicts.
		g := newGenerator(shape.spec, seed, 7)
		keys := make([]point, shape.cfg.CacheCap)
		for i := range keys {
			keys[i] = g.next().Points[0]
		}
		_, err := prime(f.front(), keys)
		c := newConn(f.target())
		defer c.close()
		if err == nil {
			st := &jobStats{}
			spec := newJobGen(seed+1, shape.spec.Schemes, 16).next()
			if _, err = runJob(c, spec, 7, 0, time.Now().Add(time.Minute), &f.ts, st); err == nil && st.rows != spec.Rows() {
				err = fmt.Errorf("warm-up job streamed %d rows, want %d", st.rows, spec.Rows())
			}
		}
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return inst, nil
}

func (s *servingInst) stop() { s.f.stop() }

func (s *servingInst) run(seconds float64, traced bool) (*window, error) {
	before, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		s.f.ts.Store(tr)
	}
	// Each window draws fresh schedule streams, so a second window of a
	// never-repeating workload does not replay the first one's keys.
	stream := s.windows * 4
	s.windows++

	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	stats := make([]*connStats, s.shape.conns)
	var js *jobStats
	var wg sync.WaitGroup
	for i := 0; i < s.shape.conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newConn(s.f.target())
			defer c.close()
			stats[i] = driveRequests(c, newGenerator(s.shape.spec, s.seed, stream+i), i, seconds, &s.f.ts)
		}(i)
	}
	if s.shape.jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(s.f.target())
			defer c.close()
			js = driveJobs(c, newJobGen(streamSeed(s.seed, uint64(stream)), s.shape.spec.Schemes, coldJobProcs), s.shape.conns, deadline, &s.f.ts)
		}()
	}
	wg.Wait()
	s.f.ts.Store(nil) // the checks and scrapes below are not the workload's
	checkSamples(stats)
	after, err := s.snapshot()
	if err != nil {
		return nil, err
	}

	w := &window{seconds: seconds, layers: map[string]float64{}}
	for _, st := range stats {
		w.latMs = append(w.latMs, st.latMs...)
		w.attempted += st.attempted
		w.failed += st.failed
		w.errs = append(w.errs, st.errs...)
		w.rows += st.rows
	}
	sort.Float64s(w.latMs)
	w.ok = len(w.latMs)
	w.ops = w.attempted
	if js != nil {
		// cold_mixed's rows are the job class's; the interactive class
		// is its primary operations.
		w.rows = js.rows
		w.attempted += js.attempted
		w.failed += js.failed
		w.errs = append(w.errs, js.errs...)
		w.ops += js.attempted
		w.layers["jobs.first_row_ms"] = median(js.firstRowMs)
		w.layers["jobs.batch_gap_p50_ms"] = median(js.gapMs)
	}
	s.counterLayers(w, before, after)
	if tr != nil {
		w.spans = tr.spans
		spanLayers(w, tr.spans, before, after)
	}
	return w, nil
}

// counters is a snapshot of every counter the fleet exposes.
type counters struct {
	stats sweep.Stats
	serve map[string]float64 // backends' /metrics, summed
	gw    map[string]float64 // the gateway's /metrics
}

func (s *servingInst) snapshot() (counters, error) {
	c := counters{stats: s.f.stats()}
	var err error
	if c.serve, err = s.f.scrapeBackends(); err != nil {
		return c, err
	}
	if s.f.gw != nil {
		if c.gw, err = scrape(s.f.gw.http.url); err != nil {
			return c, err
		}
	}
	return c, nil
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// counterLayers fills the per-layer values the layers count themselves.
func (s *servingInst) counterLayers(w *window, a, b counters) {
	d := func(get func(sweep.Stats) uint64) uint64 { return get(b.stats) - get(a.stats) }
	dh, ds := d(func(x sweep.Stats) uint64 { return x.DemandHits }), d(func(x sweep.Stats) uint64 { return x.DemandSolves })
	mh, ms := d(func(x sweep.Stats) uint64 { return x.MVAHits }), d(func(x sweep.Stats) uint64 { return x.MVASolves })
	w.layers["sweep.demand_hit_ratio"] = ratio(dh, ds)
	w.layers["sweep.mva_hit_ratio"] = ratio(mh, ms)
	w.layers["sweep.curve_extends"] = float64(d(func(x sweep.Stats) uint64 { return x.CurveExtends }))
	w.layers["sweep.curve_full_solves"] = float64(d(func(x sweep.Stats) uint64 { return x.CurveFullSolves }))
	w.layers["sweep.evictions"] = float64(d(func(x sweep.Stats) uint64 { return x.DemandEvictions + x.CurveEvictions }))
	w.layers["sweep.dedup_joins"] = float64(d(func(x sweep.Stats) uint64 { return x.DemandDedups + x.MVADedups }))
	w.layers["serve.sheds"] = b.serve["swcc_http_sheds_total"] - a.serve["swcc_http_sheds_total"]
	w.layers["serve.cancels"] = b.serve["swcc_http_cancels_total"] - a.serve["swcc_http_cancels_total"]
	if s.f.gw == nil {
		return
	}
	w.layers["gw.backend_hit_ratio"] = ratio(dh+mh, ds+ms)
	var sends float64
	for k, v := range b.gw {
		if strings.HasPrefix(k, "swcc_gw_backend_sends_total{") {
			sends += v - a.gw[k]
		}
	}
	if w.attempted > 0 {
		w.layers["gw.sends_per_req"] = sends / float64(w.attempted)
	}
	for name, series := range map[string]string{
		"gw.retries": "swcc_gw_retries_total", "gw.respills": "swcc_gw_respills_total", "gw.bad_gateway": "swcc_gw_bad_gateway_total",
	} {
		w.layers[name] = b.gw[series] - a.gw[series]
	}
}

// stageSeries is the /metrics sum series of one evaluator stage.
func stageSeries(stage string) string {
	return `swcc_stage_duration_seconds_sum{stage="` + stage + `"}`
}

// spanLayers splits each request's client-measured time into the layers
// it passed through, from the window's linked spans, and fills the
// per-layer self times. The evaluator's stage time is not spanned per
// request; its per-request mean comes from the stage histograms.
func spanLayers(w *window, spans []span, a, b counters) {
	byReq := link(spans)
	handler := map[byte][]float64{}
	var n int
	var clientUs, httpUs, gwUs, backendUs, serveUs float64
	children := func(parent int, idx []int) []span {
		var out []span
		for _, j := range idx {
			if spans[j].Parent == parent {
				out = append(out, spans[j])
			}
		}
		return out
	}
	for id, idx := range byReq {
		if len(id) < 2 {
			continue
		}
		kind := id[1]
		for _, i := range idx {
			if spans[i].Name == "serve" {
				handler[kind] = append(handler[kind], float64(spans[i].dur())/1e3)
			}
		}
		if kind != 'p' && kind != 'c' && kind != 's' {
			continue
		}
		root := -1
		for _, i := range idx {
			if spans[i].Name == "client" {
				root = i
			}
		}
		if root < 0 {
			continue
		}
		n++
		clientUs += float64(spans[root].dur()) / 1e3
		for _, i := range idx {
			self := float64(selfTime(spans[i], children(i, idx))) / 1e3
			switch spans[i].Name {
			case "client":
				httpUs += self
			case "gw":
				gwUs += self
			case "gw.backend":
				httpUs += self
				backendUs += float64(spans[i].dur()) / 1e3
			case "serve":
				serveUs += float64(spans[i].dur()) / 1e3
			}
		}
	}
	for kind, name := range map[byte]string{'p': "point", 'c': "curve", 's': "sweep", 'j': "job_submit", 'r': "job_stream"} {
		xs := handler[kind]
		sort.Float64s(xs)
		if len(xs) == 0 {
			continue
		}
		v, _ := rank(xs, 50)
		w.layers["serve.handler_"+name+"_p50_us"] = v
		_, w.layers["serve.handler_"+name+"_tail_us"] = tail(xs)
	}
	w.layers["trace.spans"] = float64(len(spans))
	if n == 0 {
		return
	}
	per := func(x float64) float64 { return x / float64(n) }
	stage := func(st string) float64 {
		return per((b.serve[stageSeries(st)] - a.serve[stageSeries(st)]) * 1e6)
	}
	validate, lookup := stage("validate"), stage(sweep.StageCacheLookup)
	wait, solve := stage(sweep.StageDedupWait), stage(sweep.StageSolve)
	w.layers["serve.stage.validate_us"] = validate
	w.layers["serve.stage.cache_lookup_us"] = lookup
	w.layers["serve.stage.singleflight_wait_us"] = wait
	w.layers["serve.stage.solve_us"] = solve
	w.layers["client.req_us"] = per(clientUs)
	w.layers["http.rtt_self_us"] = per(httpUs)
	serveSelf := per(serveUs) - lookup - wait - solve
	w.layers["serve.self_us"] = serveSelf
	if backendUs > 0 {
		w.layers["gw.self_us"] = per(gwUs)
		w.layers["gw.backend_rtt_us"] = per(backendUs)
	}
	w.layers["layers.residual_us"] = per(clientUs) - (per(httpUs) + per(gwUs) + serveSelf + lookup + wait + solve)
}

// probe measures the handler alone, a fresh evaluator, and the kernel
// on the workload's own keys.
func (s *servingInst) probe(layers map[string]float64) error {
	const replays = 400
	g := newGenerator(s.shape.spec, s.seed, 6)
	b := s.f.backends[0]
	var reqs []request
	for len(reqs) < replays {
		rq := g.next()
		// Behind the gateway, replay only the keys this backend owns:
		// the handler cost affinity routing gives it.
		if s.owners != nil && s.f.gw != nil && s.owners[rq.Points[0].Shd] != b.http.url {
			continue
		}
		reqs = append(reqs, rq)
	}
	h := b.srv.Handler()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, rq := range reqs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rq.Path, strings.NewReader(string(rq.Body))))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler replay: status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
	}
	runtime.ReadMemStats(&m1)
	layers["serve.handler_allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / replays
	layers["serve.handler_bytes_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / replays

	// A fresh evaluator on the workload's first distinct keys: the first
	// query of a key is a miss, the second a hit.
	var keys []point
	seen := map[point]bool{}
	for _, rq := range reqs {
		for _, p := range rq.Points {
			p.Point = true
			if !seen[p] && len(keys) < 64 {
				seen[p] = true
				keys = append(keys, p)
			}
		}
	}
	ev := sweep.NewEvaluator()
	costs := core.BusCosts()
	var hitNs, missUs, demandNs, mvaUs []float64
	for _, k := range keys {
		sch, params, err := resolve(k)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := ev.BusPoint(sch, params, costs, k.Procs); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := ev.BusPoint(sch, params, costs, k.Procs); err != nil {
			return err
		}
		t2 := time.Now()
		missUs = append(missUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
		hitNs = append(hitNs, float64(t2.Sub(t1).Nanoseconds()))

		t0 = time.Now()
		d, err := core.ComputeDemand(sch, params, costs)
		if err != nil {
			return err
		}
		t1 = time.Now()
		if d.Priority > 0 {
			hi, lo := d.PrioritySplit()
			_, err = queueing.PrioritySingleServerMVA(d.Think(), hi, lo, k.Procs, nil)
		} else {
			_, err = queueing.SingleServerMVA(d.Think(), d.Interconnect, k.Procs)
		}
		if err != nil {
			return err
		}
		t2 = time.Now()
		demandNs = append(demandNs, float64(t1.Sub(t0).Nanoseconds()))
		mvaUs = append(mvaUs, float64(t2.Sub(t1).Nanoseconds())/1e3)
	}
	layers["sweep.buspoint_hit_ns"] = median(hitNs)
	layers["sweep.buspoint_miss_us"] = median(missUs)
	layers["kernel.demand_ns"] = median(demandNs)
	layers["kernel.mva_us"] = median(mvaUs)
	return nil
}
