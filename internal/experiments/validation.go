package experiments

import (
	"context"
	"fmt"

	"swcc/internal/core"
	"swcc/internal/measure"
	"swcc/internal/plot"
	"swcc/internal/report"
	"swcc/internal/sim"
	"swcc/internal/sweep"
	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

func init() {
	register(Spec{ID: "fig1", Paper: "Figure 1", Title: "Model vs simulation, Base and Dragon, 64KB caches", Run: runFig1})
	register(Spec{ID: "fig2", Paper: "Figure 2", Title: "Cache-size impact on Dragon, model vs simulation, ≤4 CPUs", Run: runFig2})
	register(Spec{ID: "fig3", Paper: "Figure 3", Title: "Cache-size impact on Dragon, model vs simulation, 8 CPUs", Run: runFig3})
}

// validationTrace generates the preset trace at the requested scale.
func validationTrace(opt Options, def string) (*trace.Trace, string, error) {
	preset := opt.Preset
	if preset == "" {
		preset = def
	}
	cfg, err := tracegen.Preset(preset)
	if err != nil {
		return nil, "", err
	}
	cfg.InstrPerCPU = int(float64(cfg.InstrPerCPU) * opt.traceScale())
	if cfg.InstrPerCPU < 1000 {
		cfg.InstrPerCPU = 1000
	}
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		return nil, "", err
	}
	return tr, preset, nil
}

// protoScheme pairs a simulator protocol with its analytic scheme.
type protoScheme struct {
	proto  sim.Protocol
	scheme core.Scheme
}

// validate runs model-vs-simulation for the given schemes and cache size
// across machine sizes 1..a.NCPU of the analysed trace. It returns
// (simulated, modeled) power series per scheme plus the parameter
// measurement used by the model. Figures that validate one trace at
// several cache sizes analyse it once and pass the same analysis.
func validate(a *measure.Analysis, cache sim.CacheConfig, pairs []protoScheme) ([]plot.Series, *measure.Measurement, error) {
	m, err := a.Extract(cache, 0.5)
	if err != nil {
		return nil, nil, err
	}
	// The simulations dominate the cost and are independent across both
	// the scheme and the machine size: flatten (pair, n) into one job
	// grid and run it on all cores, writing each power into its own
	// slot. Machine size n replays the first n processors' streams of
	// the analysis's split. The full-size Base and Dragon cells are
	// measure's shadow runs (same processors, cache and protocol, and a
	// 0.5 warmup fraction is exactly half the records), so they are
	// read back instead of simulated again. The analytic side goes
	// through the shared cache.
	streams := a.Streams
	nsizes := a.NCPU
	simPowers := make([]float64, len(pairs)*nsizes)
	if err := sweep.Each(0, len(simPowers), func(i int) error {
		pr := pairs[i/nsizes]
		n := i%nsizes + 1
		if shadow := shadowRun(m, pr.proto); n == nsizes && shadow != nil {
			simPowers[i] = shadow.Power()
			return nil
		}
		sub := streams[:n]
		res, err := sim.RunStreams(sim.Config{
			NCPU:       n,
			Cache:      cache,
			Protocol:   pr.proto,
			WarmupRefs: streamRefs(sub) / 2,
		}, sub)
		if err != nil {
			return err
		}
		simPowers[i] = res.Power()
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var out []plot.Series
	for pi, pr := range pairs {
		simSeries := plot.Series{Name: pr.scheme.Name() + " sim"}
		modelSeries := plot.Series{Name: pr.scheme.Name() + " model"}
		modelPts, err := busEval.EvaluateBus(pr.scheme, m.Params, core.BusCosts(), nsizes)
		if err != nil {
			return nil, nil, err
		}
		for n := 1; n <= nsizes; n++ {
			simSeries.X = append(simSeries.X, float64(n))
			simSeries.Y = append(simSeries.Y, simPowers[pi*nsizes+n-1])
			modelSeries.X = append(modelSeries.X, float64(n))
			modelSeries.Y = append(modelSeries.Y, modelPts[n-1].Power)
		}
		out = append(out, simSeries, modelSeries)
	}
	return out, m, nil
}

// shadowRun returns measure's full-trace shadow run for proto, or nil
// if measure runs none under that protocol.
func shadowRun(m *measure.Measurement, proto sim.Protocol) *sim.Result {
	switch proto {
	case sim.ProtoBase:
		return m.Base
	case sim.ProtoDragon:
		return m.Dragon
	}
	return nil
}

// streamRefs returns the streams' total record count.
func streamRefs(streams [][]trace.Ref) int {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	return n
}

func seriesTable(series []plot.Series) *report.Table {
	tab := &report.Table{Header: []string{"processors"}}
	for _, s := range series {
		tab.Header = append(tab.Header, s.Name)
	}
	if len(series) == 0 || len(series[0].X) == 0 {
		return tab
	}
	for i := range series[0].X {
		row := []string{report.FormatFloat(series[0].X[i])}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.3f", s.Y[i]))
		}
		tab.AddRow(row...)
	}
	return tab
}

func runFig1(ctx context.Context, opt Options) (*Dataset, error) {
	tr, preset, err := validationTrace(opt, "pops")
	if err != nil {
		return nil, err
	}
	a, err := measure.Analyze(tr)
	if err != nil {
		return nil, err
	}
	cache := sim.CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	series, m, err := validate(a, cache, []protoScheme{
		{sim.ProtoBase, core.Base{}},
		{sim.ProtoDragon, core.Dragon{}},
	})
	if err != nil {
		return nil, err
	}
	ds := &Dataset{
		ID:     "fig1",
		Title:  fmt.Sprintf("Model vs simulation, Base & Dragon, 64KB caches, %q trace", preset),
		XLabel: "processors",
		YLabel: "processing power",
		Series: series,
		Table:  seriesTable(series),
	}
	ds.Notes = append(ds.Notes,
		fmt.Sprintf("measured params: ls=%.3f msdat=%.4f mains=%.4f md=%.3f shd=%.3f wr=%.3f apl=%.1f oclean=%.3f opres=%.3f nshd=%.2f",
			m.Params.LS, m.Params.MsDat, m.Params.MsIns, m.Params.MD, m.Params.Shd, m.Params.WR, m.Params.APL, m.Params.OClean, m.Params.OPres, m.Params.NShd),
		"the exponential-service bus model slightly overestimates contention vs the fixed-service simulator, as in the paper")
	return ds, nil
}

func runFig2(ctx context.Context, opt Options) (*Dataset, error) {
	return dragonCacheSizes(opt, "fig2", "pops", "Dragon model vs simulation across cache sizes, %q trace")
}

func runFig3(ctx context.Context, opt Options) (*Dataset, error) {
	return dragonCacheSizes(opt, "fig3", "pero8", "Dragon model vs simulation, 8-processor %q trace")
}

// dragonCacheSizes validates Dragon on one trace, generated from the
// preset def unless opt names another, at three cache sizes. The trace
// is analysed once for all three. title formats the preset name.
func dragonCacheSizes(opt Options, id, def, title string) (*Dataset, error) {
	tr, preset, err := validationTrace(opt, def)
	if err != nil {
		return nil, err
	}
	a, err := measure.Analyze(tr)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{
		ID:     id,
		Title:  fmt.Sprintf(title, preset),
		XLabel: "processors",
		YLabel: "processing power",
	}
	for _, size := range []int{16 * 1024, 64 * 1024, 256 * 1024} {
		cache := sim.CacheConfig{Size: size, BlockSize: 16, Assoc: 2}
		series, _, err := validate(a, cache, []protoScheme{{sim.ProtoDragon, core.Dragon{}}})
		if err != nil {
			return nil, err
		}
		for i := range series {
			series[i].Name = fmt.Sprintf("%dK %s", size/1024, series[i].Name[len("Dragon "):])
		}
		ds.Series = append(ds.Series, series...)
	}
	ds.Table = seriesTable(ds.Series)
	return ds, nil
}
