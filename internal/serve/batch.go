package serve

import (
	"context"
	"errors"
	"fmt"

	"swcc/internal/core"
	"swcc/internal/sweep"
)

// --- /v1/sweep ---

// sweepRequest is a batch of bus-model queries: a grid of (scheme,
// workload, procs) points answered in one round trip instead of one
// /v1/bus call each. Each point accepts exactly the /v1/bus request
// fields and produces exactly the /v1/bus response for that point, so a
// client can swap N sequential calls for one batch without changing how
// it reads results.
type sweepRequest struct {
	Points []busRequest `json:"points"`
}

type sweepResponse struct {
	Count   int           `json:"count"`
	Results []busResponse `json:"results"`
}

// sweepJob is one validated point, ready to solve.
type sweepJob struct {
	scheme core.Scheme
	params core.Params
	procs  int
	point  bool
}

// pointErr prefixes a per-point validation error with its index so the
// client knows which grid cell to fix, preserving the status code.
func pointErr(i int, err error) error {
	var he *httpError
	if errors.As(err, &he) {
		return &httpError{code: he.code, msg: fmt.Sprintf("points[%d]: %s", i, he.msg)}
	}
	return fmt.Errorf("points[%d]: %w", i, err)
}

// handleSweep validates every point up front (the whole batch is
// rejected 400 if any cell is malformed — same strictness as /v1/bus,
// with the failing index named), then fans the grid out across the
// evaluator on all cores. The batch occupies one concurrency-limiter
// slot: MaxInFlight keeps bounding admitted requests, while the
// intra-batch parallelism uses the worker pool. Results come back in
// caller order, each bit-identical to the equivalent /v1/bus response.
func (s *Server) handleSweep(ctx context.Context, body []byte) (any, error) {
	var req sweepRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	if len(req.Points) == 0 {
		return nil, badRequest(`"points" must be a non-empty array`)
	}
	if len(req.Points) > s.cfg.MaxBatchPoints {
		return nil, badRequest("batch of %d points exceeds the %d-point cap",
			len(req.Points), s.cfg.MaxBatchPoints)
	}
	jobs := make([]sweepJob, len(req.Points))
	for i, pr := range req.Points {
		scheme, p, err := resolve(pr.SchemeSpec, pr.Workload)
		if err != nil {
			return nil, pointErr(i, err)
		}
		procs, err := s.checkProcs(pr.Procs)
		if err != nil {
			return nil, pointErr(i, err)
		}
		jobs[i] = sweepJob{scheme: scheme, params: p, procs: procs, point: pr.Point}
	}
	return s.solve(ctx, func() (any, error) {
		// Points sharing one (scheme, canonical workload) form a group
		// that one curve solved at the group's largest population
		// answers. Groups are population-ascending, so that population
		// is the group's last cell.
		groups := sweep.BatchGroups(len(jobs), func(i int) (core.Scheme, core.Params, int) {
			return jobs[i].scheme, jobs[i].params, jobs[i].procs
		})
		results := make([]busResponse, len(jobs))
		errs := make([]error, len(jobs))
		sweep.EachCtx(ctx, 0, len(groups), func(g int) error {
			group := groups[g]
			curve := groupCurve{maxProcs: jobs[group[len(group)-1]].procs}
			for _, i := range group {
				errs[i] = s.solveSweepPoint(ctx, jobs[i], &curve, &results[i])
			}
			return nil
		})
		if err := sweepError(ctx, errs); err != nil {
			return nil, err
		}
		return sweepResponse{Count: len(results), Results: results}, nil
	})
}

// solveSweepPoint answers one grid cell of a batch into *out, reading
// it off the group's curve. Each point remains its own fault-injection
// site and cancellation point, and the pool's worker goroutines have no
// recover of their own — an injected (or model) panic here must become
// this point's error, not kill the process.
func (s *Server) solveSweepPoint(ctx context.Context, j sweepJob, curve *groupCurve, out *busResponse) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: internal error: %v", p)
		}
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	c, err := s.cellCurve(ctx, curve, j.scheme, j.params)
	if err != nil {
		return err
	}
	resp := busResponse{Scheme: core.SchemeLabel(j.scheme), Costs: s.bus.Name, Procs: j.procs}
	if j.point {
		resp.Points = []core.BusPoint{c.At(j.procs)}
	} else {
		resp.Points = make([]core.BusPoint, j.procs)
		for k := range resp.Points {
			resp.Points[k] = c.At(k + 1)
		}
	}
	*out = resp
	return nil
}

// groupCurve is one batch group's curve, solved at the group's largest
// population by the first cell that gets past its own fault-injection
// site. A failed solve leaves it unsolved, so the next cell retries and
// every cell reports its own error.
type groupCurve struct {
	maxProcs int
	curve    sweep.BusCurve
	solved   bool
}

// cellCurve is the step every batch and job-grid cell shares: its
// fault-injection site, then the group's curve.
func (s *Server) cellCurve(ctx context.Context, g *groupCurve, sch core.Scheme, p core.Params) (sweep.BusCurve, error) {
	if err := s.cfg.Fault.Point(ctx); err != nil {
		return sweep.BusCurve{}, err
	}
	if !g.solved {
		c, err := s.ev.BusCurveCtx(ctx, sch, p, s.bus, g.maxProcs)
		if err != nil {
			return sweep.BusCurve{}, err
		}
		g.curve, g.solved = c, true
	}
	return g.curve, nil
}

// sweepError maps a finished batch's per-point errors to the one error
// the response reports. A done context wins outright and is returned
// bare: a batch abandoned mid-flight is a timeout (504) or disconnect
// of the whole request, and naming whichever point happened to observe
// the cancellation first ("points[17]: context deadline exceeded")
// would misreport a request-level condition as a data error — the bug
// this helper exists to fix. Only with the context still live is the
// lowest-index point error returned, index-prefixed, as before.
func sweepError(ctx context.Context, errs []error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return err
			}
			return pointErr(i, err)
		}
	}
	return nil
}
