package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"swcc/internal/core"
)

// Point is one cell of an evaluation grid: a scheme, a workload, and a
// machine size.
type Point struct {
	Scheme core.Scheme // coherence scheme under evaluation
	Params core.Params // workload parameters (Table 7 space)
	NProc  int         // machine size in processors
}

// Result pairs a Point with its bus-model solution at exactly
// Point.NProc processors. On error Bus is zero and Err explains.
type Result struct {
	Point Point         // the grid cell this result answers
	Bus   core.BusPoint // the model's prediction at Point.NProc
	Err   error         // non-nil when the cell failed to solve
}

// Engine evaluates grids on a worker pool with an optional shared memo
// cache. The zero value runs sequentially and uncached; New returns the
// usual configuration (all cores, fresh cache).
type Engine struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache memoizes demand and MVA solves across grid cells and
	// engine calls. nil disables memoization (every cell solves fresh).
	Cache *Evaluator
}

// New returns an engine with the given pool size (<= 0 = all cores) and a
// fresh shared cache.
func New(workers int) *Engine {
	return &Engine{Workers: workers, Cache: NewEvaluator()}
}

func (e *Engine) workers() int {
	if e == nil || e.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.Workers
}

// EvaluateBus solves every grid point on the worker pool and returns the
// results in input order. Scheduling never affects the output: each
// worker writes only its own slots and every solve is a pure function of
// the point, so the result slice is bit-identical to a sequential run.
//
// With a cache attached, points sharing one (scheme, canonical workload)
// are grouped into a single work unit: one BusCurve solved at the
// group's largest valid population answers every cell, because the MVA
// recursion carries only the queue length from one population to the
// next and so a curve's prefix is each smaller cell's answer bit for
// bit.
func (e *Engine) EvaluateBus(points []Point, costs *core.CostTable) []Result {
	return e.EvaluateBusCtx(context.Background(), points, costs)
}

// EvaluateBusCtx is EvaluateBus under cooperative cancellation: once ctx
// is done no further group starts, in-flight groups stop at the
// evaluator's next cancellation point, and every unsolved cell carries
// ctx's error in Result.Err. A background ctx makes it exactly
// EvaluateBus. This is the hook that lets `cohere all -parallel` and the
// sensitivity sweep abandon work on SIGINT instead of solving a grid
// nobody will read (EvaluateBus used to hardwire context.Background()
// here, silently dropping the caller's cancellation).
func (e *Engine) EvaluateBusCtx(ctx context.Context, points []Point, costs *core.CostTable) []Result {
	results := make([]Result, len(points))
	workers := 1
	var cache *Evaluator
	if e != nil {
		workers = e.workers()
		cache = e.Cache
	}
	if cache == nil {
		EachCtx(ctx, workers, len(points), func(i int) error {
			pt := points[i]
			results[i].Point = pt
			bus, err := core.EvaluateBus(pt.Scheme, pt.Params, costs, pt.NProc)
			if err != nil {
				results[i].Err = err
				return nil
			}
			results[i].Bus = bus[pt.NProc-1]
			return nil
		})
		markSkipped(ctx, points, results)
		return results
	}
	groups := BatchGroups(len(points), func(i int) (core.Scheme, core.Params, int) {
		return points[i].Scheme, points[i].Params, points[i].NProc
	})
	EachCtx(ctx, workers, len(groups), func(g int) error {
		maxProcs := 0
		for _, i := range groups[g] {
			results[i].Point = points[i]
			if pt := points[i]; pt.NProc > maxProcs && pt.Params.Validate() == nil {
				maxProcs = pt.NProc
			}
		}
		var curve BusCurve
		solved := false
		for _, i := range groups[g] {
			pt := points[i]
			// Per-point validation order matches BusPoint exactly, so
			// grouping never changes which error a point reports.
			if pt.NProc < 1 {
				results[i].Err = fmt.Errorf("core: nproc %d < 1", pt.NProc)
				continue
			}
			if err := pt.Params.Validate(); err != nil {
				results[i].Err = fmt.Errorf("%s: %w", pt.Scheme.Name(), err)
				continue
			}
			if !solved {
				c, err := cache.BusCurveCtx(ctx, pt.Scheme, pt.Params, costs, maxProcs)
				if err != nil {
					results[i].Err = err
					continue
				}
				curve, solved = c, true
			}
			results[i].Bus = curve.At(pt.NProc)
		}
		return nil
	})
	markSkipped(ctx, points, results)
	return results
}

// markSkipped back-fills the cells whose work unit never started because
// ctx was cancelled first: EachCtx stops claiming indices once ctx is
// done, leaving those results zero. Every cell that did run has its
// Point (and hence a non-nil Scheme) stamped before any solving, so a
// nil Scheme is exactly "skipped by cancellation".
func markSkipped(ctx context.Context, points []Point, results []Result) {
	err := ctx.Err()
	if err == nil {
		return
	}
	for i := range results {
		if results[i].Point.Scheme == nil {
			results[i].Point = points[i]
			results[i].Err = err
		}
	}
}

// FirstError returns the error of the lowest-index failed result, or nil.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// Each runs fn(i) for every i in [0, n) on up to `workers` goroutines
// (<= 0 = all cores) and returns the lowest-index error, or nil. Every
// index runs regardless of failures elsewhere. With one worker the
// indices run sequentially in order on the calling goroutine, so a
// single-core Each has no scheduling overhead at all; either way the
// per-index effects and the returned error are scheduling-independent as
// long as fn(i) only writes state owned by index i.
func Each(workers, n int, fn func(i int) error) error {
	return EachCtx(context.Background(), workers, n, fn)
}

// EachCtx is Each under cooperative cancellation: once ctx is done, no
// further fn(i) starts — remaining indices fail with ctx's error instead
// of running — so a caller that has stopped caring (a timed-out HTTP
// request, an abandoned batch) stops consuming the worker pool within
// one in-flight fn per worker. Indices that ran before cancellation keep
// their results; which indices those are depends on scheduling, so
// unlike Each the per-index effects are only deterministic when ctx is
// never cancelled (a background ctx makes EachCtx exactly Each).
func EachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		var first error
		for i := 0; i < n; i++ {
			err := ctx.Err()
			if err == nil {
				err = fn(i)
			}
			if err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	next := int64(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BatchGroups partitions point indices 0..n-1 into groups that share one
// (scheme, canonical workload) pair — and hence one demand solve and one
// MVA curve — with each group sorted population-ascending, so its last
// point is the population one BusCurve solve must reach. at reports
// point i's fields. Groups appear in first-occurrence order and sorting
// is stable, so the decomposition is deterministic; callers still write
// per-point results by index, keeping output order independent of
// grouping.
func BatchGroups(n int, at func(i int) (core.Scheme, core.Params, int)) [][]int {
	type groupKey struct {
		scheme string
		params core.Params
	}
	groups := map[groupKey]int{}
	out := [][]int{}
	nprocs := make([]int, n)
	for i := 0; i < n; i++ {
		s, p, nproc := at(i)
		nprocs[i] = nproc
		k := groupKey{core.SchemeLabel(s), core.CanonicalParams(s, p)}
		gi, ok := groups[k]
		if !ok {
			gi = len(out)
			groups[k] = gi
			out = append(out, nil)
		}
		out[gi] = append(out[gi], i)
	}
	for _, g := range out {
		sort.SliceStable(g, func(a, b int) bool { return nprocs[g[a]] < nprocs[g[b]] })
	}
	return out
}
