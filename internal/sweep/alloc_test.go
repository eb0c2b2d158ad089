//go:build !race

// Allocation pins live behind !race: the race detector's instrumentation
// changes allocation behavior enough to make testing.AllocsPerRun counts
// unreliable, so `go test -race` (the make-check default) skips these and
// `make alloc-check` runs them without instrumentation.

package sweep

import (
	"context"
	"testing"

	"swcc/internal/core"
)

// TestBusPointWarmPathAllocFree pins the tentpole number: a warm
// (demand-hit, curve-hit) BusPoint query allocates nothing, for every
// paper scheme. Hybrid is excluded — its SchemeLabel goes through
// fmt.Sprintf by design (configured schemes pay for their Stringer).
func TestBusPointWarmPathAllocFree(t *testing.T) {
	costs := core.BusCosts()
	p := core.MiddleParams()
	ev := NewEvaluator()
	for _, s := range core.PaperSchemes() {
		if _, err := ev.BusPoint(s, p, costs, 64); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range core.PaperSchemes() {
		s := s
		var err error
		if avg := testing.AllocsPerRun(200, func() {
			_, err = ev.BusPoint(s, p, costs, 64)
		}); avg != 0 {
			t.Errorf("%s: warm BusPoint allocates %.1f/op, want 0", s.Name(), avg)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvaluateBusWarmAllocs: the warm full-curve path allocates exactly
// one thing, the caller-owned result slice; the points are read straight
// off the shared cached curve.
func TestEvaluateBusWarmAllocs(t *testing.T) {
	costs := core.BusCosts()
	p := core.MiddleParams()
	ev := NewEvaluator()
	ctx := context.Background()
	if _, err := ev.EvaluateBus(core.Base{}, p, costs, 64); err != nil {
		t.Fatal(err)
	}
	var err error
	if avg := testing.AllocsPerRun(200, func() {
		_, err = ev.EvaluateBusCtx(ctx, core.Base{}, p, costs, 64)
	}); avg != 1 {
		t.Errorf("warm EvaluateBusCtx allocates %.1f/op, want exactly 1 (the result slice)", avg)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestWarmExtendAllocBudget bounds the miss path that matters most
// after the incremental kernel: extending a resident curve. One extend
// costs the new backing array, the singleflight bookkeeping, and cache
// publication — a handful of allocations, independent of how many
// populations the extension adds. The budget is a tripwire against
// quietly reintroducing per-population or per-point allocations.
func TestWarmExtendAllocBudget(t *testing.T) {
	costs := core.BusCosts()
	p := core.MiddleParams()
	ev := NewEvaluator()
	if _, err := ev.BusPoint(core.Base{}, p, costs, 8); err != nil {
		t.Fatal(err)
	}
	n := 8
	var err error
	avg := testing.AllocsPerRun(100, func() {
		n += 8
		_, err = ev.BusPoint(core.Base{}, p, costs, n)
	})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 12
	if avg > budget {
		t.Errorf("warm extend allocates %.1f/op, budget %d", avg, budget)
	}
}
