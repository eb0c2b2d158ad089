package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"time"

	"swcc/internal/experiments"
	"swcc/internal/measure"
	"swcc/internal/sim"
	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

// sim_validate: the paper's Figures 1-3, model against trace-driven
// simulation, at the presets' full length, back to back.

// validationFigs are the experiments one pass runs, in order.
var validationFigs = []string{"fig1", "fig2", "fig3"}

// bandFigs are the figures held to the repository's 15% validation
// band (TestValidationRobustAcrossSeeds gates fig1). Figure 3's
// 8-processor trace cut down to one or two processors misses the band
// (by up to ~29% at n=1) at every seed tried; sim.model_err_max
// reports it.
var bandFigs = map[string]bool{"fig1": true, "fig2": true}

const validationBand = 0.15

// tracePresets are the presets the figures generate traces from.
var tracePresets = []string{"pops", "pero8"}

type simInst struct {
	traceSeed uint64
	traces    []*trace.Trace // the figures' traces, generated at set-up
	digest    uint64         // the first pass's digest; every pass must repeat it
	hasDigest bool
	errMax    float64
}

// passResult is one pass's outcome.
type passResult struct {
	seconds float64 // wall
	cpu     float64 // process CPU seconds
	figSecs []float64
	digest  uint64
	errMax  float64
	rows    int
	err     error
}

// setupSimValidate generates the figures' traces, as each pass will.
func setupSimValidate(seed int64) (instance, error) {
	s := &simInst{traceSeed: uint64(streamSeed(seed, 900)) | 1}
	for _, name := range tracePresets {
		tr, err := s.genTrace(name)
		if err != nil {
			return nil, err
		}
		s.traces = append(s.traces, tr)
	}
	return s, nil
}

func (s *simInst) genTrace(preset string) (*trace.Trace, error) {
	cfg, err := tracegen.Preset(preset)
	if err != nil {
		return nil, err
	}
	cfg.Seed = s.traceSeed
	return tracegen.Generate(cfg)
}

func (s *simInst) stop() {}

// pass runs Figures 1-3 once and checks them.
func (s *simInst) pass(tr *tracer, n int) passResult {
	var r passResult
	h := fnv.New64a()
	start, cpu0 := time.Now(), cpuSeconds()
	for _, id := range validationFigs {
		t0 := time.Now()
		ds, err := experiments.RunCtx(context.Background(), id, experiments.Options{Seed: s.traceSeed})
		t1 := time.Now()
		tr.record("experiments."+id, fmt.Sprintf("pass-%d", n), t0, t1)
		r.figSecs = append(r.figSecs, t1.Sub(t0).Seconds())
		if err != nil {
			r.err = fmt.Errorf("%s: %w", id, err)
			return r
		}
		byName := map[string][]float64{}
		for _, sr := range ds.Series {
			fmt.Fprintf(h, "%s|%s|", id, sr.Name)
			for i := range sr.Y {
				fmt.Fprintf(h, "%x,%x;", math.Float64bits(sr.X[i]), math.Float64bits(sr.Y[i]))
			}
			byName[sr.Name] = sr.Y
		}
		for name, simY := range byName {
			base, ok := strings.CutSuffix(name, " sim")
			if !ok {
				continue
			}
			modY := byName[base+" model"]
			if len(modY) != len(simY) {
				r.err = fmt.Errorf("%s %s: %d model points for %d simulated", id, base, len(modY), len(simY))
				return r
			}
			for i := range simY {
				rel := math.Abs(simY[i]-modY[i]) / simY[i]
				r.errMax = max(r.errMax, rel)
				if bandFigs[id] && rel > validationBand && r.err == nil {
					r.err = fmt.Errorf("%s %s n=%d: model %.4f vs simulated %.4f, %.1f%% apart (band %.0f%%)",
						id, base, i+1, modY[i], simY[i], rel*100, validationBand*100)
				}
			}
			r.rows += len(simY)
		}
	}
	r.seconds, r.cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
	r.digest = h.Sum64()
	return r
}

// run measures whole passes, starting one while the window is open.
func (s *simInst) run(seconds float64, traced bool) (*window, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	w := &window{seconds: seconds, layers: map[string]float64{}}
	start := time.Now()
	var passSecs []float64
	var figSecs [3][]float64
	for n := 0; n == 0 || time.Since(start).Seconds() < seconds; n++ {
		r := s.pass(tr, n)
		w.attempted++
		switch {
		case r.err != nil:
			w.failed++
			w.errs = append(w.errs, r.err.Error())
			continue
		case !s.hasDigest:
			s.digest, s.errMax, s.hasDigest = r.digest, r.errMax, true
		case r.digest != s.digest:
			w.failed++
			w.errs = append(w.errs, fmt.Sprintf("pass %d: digest %016x, want %016x: simulated statistics did not repeat", n, r.digest, s.digest))
			continue
		}
		passSecs = append(passSecs, r.seconds)
		// A pass lasts seconds, long enough that the host's steal time
		// swings its wall time from run to run; its CPU time does not
		// swing, so that is the pass's latency here.
		w.latMs = append(w.latMs, r.cpu*1e3)
		for i, v := range r.figSecs {
			figSecs[i] = append(figSecs[i], v)
		}
		w.rows += r.rows
	}
	w.ops = w.attempted
	w.ok = len(passSecs)
	sort.Float64s(w.latMs)
	w.layers["sim.pass_wall_s"] = median(passSecs)
	w.layers["sim.model_err_max"] = s.errMax
	for i, id := range validationFigs {
		w.layers["experiments."+id+"_s"] = median(figSecs[i])
	}
	if tr != nil {
		w.spans = tr.spans
		w.layers["trace.spans"] = float64(len(tr.spans))
		w.layers["sim.runs"] = float64(len(passSecs) * s.simRunsPerPass())
	}
	return w, nil
}

// simRunsPerPass counts the sim.Run calls of one pass: one per
// (curve, machine size), machine sizes 1..NCPU of the figure's trace.
func (s *simInst) simRunsPerPass() int {
	pops, pero8 := s.traces[0].NCPU, s.traces[1].NCPU
	return 2*pops + 3*pops + 3*pero8 // fig1: Base, Dragon; fig2, fig3: three cache sizes
}

// probe times the layers under the figures on their own: generating a
// trace, extracting the model's parameters from it, and one simulation.
func (s *simInst) probe(layers map[string]float64) error {
	var refs int
	t0 := time.Now()
	for _, name := range tracePresets {
		tr, err := s.genTrace(name)
		if err != nil {
			return err
		}
		refs += len(tr.Refs)
	}
	layers["tracegen.refs_per_s"] = float64(refs) / time.Since(t0).Seconds()

	tr := s.traces[0]
	cache := sim.CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	t0 = time.Now()
	if _, err := measure.Extract(tr, cache, 0.5); err != nil {
		return err
	}
	layers["measure.extract_s"] = time.Since(t0).Seconds()

	t0 = time.Now()
	if _, err := sim.Run(sim.Config{NCPU: tr.NCPU, Cache: cache, Protocol: sim.ProtoDragon, WarmupRefs: len(tr.Refs) / 2}, tr); err != nil {
		return err
	}
	layers["sim.refs_per_s"] = float64(len(tr.Refs)) / time.Since(t0).Seconds()
	return nil
}
