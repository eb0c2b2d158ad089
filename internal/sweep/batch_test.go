package sweep

import (
	"testing"

	"swcc/internal/core"
)

// TestBatchGroups pins the grouping contract: canonically equal points
// share a group regardless of differences in parameters their scheme
// ignores, groups appear in first-occurrence order, and each group is
// sorted population-ascending with input order breaking ties.
func TestBatchGroups(t *testing.T) {
	pMid := core.MiddleParams()
	// Base ignores shd, so these two are canonically equal for Base but
	// distinct for Dragon.
	pShd, err := pMid.With("shd", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	points := []Point{
		{Scheme: core.Base{}, Params: pMid, NProc: 32},   // group 0
		{Scheme: core.Dragon{}, Params: pMid, NProc: 8},  // group 1
		{Scheme: core.Base{}, Params: pShd, NProc: 4},    // group 0 (shd unused by Base)
		{Scheme: core.Dragon{}, Params: pShd, NProc: 2},  // group 2 (shd used by Dragon)
		{Scheme: core.Base{}, Params: pMid, NProc: 4},    // group 0, ties with index 2
		{Scheme: core.Dragon{}, Params: pMid, NProc: 64}, // group 1
	}
	groups := BatchGroups(len(points), func(i int) (core.Scheme, core.Params, int) {
		return points[i].Scheme, points[i].Params, points[i].NProc
	})
	want := [][]int{{2, 4, 0}, {1, 5}, {3}}
	if len(groups) != len(want) {
		t.Fatalf("got %d groups %v, want %d", len(groups), groups, len(want))
	}
	for g := range want {
		if len(groups[g]) != len(want[g]) {
			t.Fatalf("group %d = %v, want %v", g, groups[g], want[g])
		}
		for j := range want[g] {
			if groups[g][j] != want[g][j] {
				t.Fatalf("group %d = %v, want %v", g, groups[g], want[g])
			}
		}
	}
}

// TestEngineBatchGroupingBitIdentical runs the same grid through a
// grouped (cached) engine and a fresh uncached one: results must agree
// bit for bit, including points fed in population-descending order and
// duplicates, and errors must match the ungrouped path's text.
func TestEngineBatchGroupingBitIdentical(t *testing.T) {
	pMid := core.MiddleParams()
	var points []Point
	// Population-descending duplicates across two schemes: the grouped
	// path must sort, extend, and still answer in input order.
	for _, n := range []int{64, 8, 32, 8, 128, 1} {
		points = append(points,
			Point{Scheme: core.Base{}, Params: pMid, NProc: n},
			Point{Scheme: core.SoftwareFlush{}, Params: pMid, NProc: n},
		)
	}
	got := New(4).EvaluateBus(points, core.BusCosts())
	want := (&Engine{Workers: 1}).EvaluateBus(points, core.BusCosts())
	for i := range want {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("point %d: err %v vs %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Bus != want[i].Bus {
			t.Fatalf("point %d: grouped %+v, ungrouped %+v", i, got[i].Bus, want[i].Bus)
		}
	}
}

// TestEngineBatchGroupingErrors: an invalid point inside a group errors
// with the same message the ungrouped path produces, without poisoning
// its canonically-equal valid neighbors.
func TestEngineBatchGroupingErrors(t *testing.T) {
	pMid := core.MiddleParams()
	bad := pMid
	bad.Shd = 2.0 // invalid, but unused by Base: canonically equal to pMid
	points := []Point{
		{Scheme: core.Base{}, Params: bad, NProc: 8},
		{Scheme: core.Base{}, Params: pMid, NProc: 16},
		{Scheme: core.Base{}, Params: pMid, NProc: 0}, // nproc error
		{Scheme: core.Base{}, Params: pMid, NProc: 4},
	}
	got := New(1).EvaluateBus(points, core.BusCosts())
	ref := NewEvaluator()
	for i, pt := range points {
		wantBus, wantErr := ref.BusPoint(pt.Scheme, pt.Params, core.BusCosts(), pt.NProc)
		if wantErr != nil {
			if got[i].Err == nil || got[i].Err.Error() != wantErr.Error() {
				t.Errorf("point %d: err %v, want %v", i, got[i].Err, wantErr)
			}
			continue
		}
		if got[i].Err != nil {
			t.Errorf("point %d: unexpected err %v", i, got[i].Err)
			continue
		}
		if got[i].Bus != wantBus {
			t.Errorf("point %d: %+v, want %+v", i, got[i].Bus, wantBus)
		}
	}
}

// TestGroupSolvesOnceAtLargestPopulation pins the grouped path's cost
// as counts: a 512-point population-ascending group is one MVA solve at
// its largest population, published as one curve, after which a query
// at that population is a pure hit. Growing the curve one population
// at a time would cost 512 solves.
func TestGroupSolvesOnceAtLargestPopulation(t *testing.T) {
	ev := NewEvaluator()
	p := core.MiddleParams()
	costs := core.BusCosts()
	points := make([]Point, 512)
	for i := range points {
		points[i] = Point{Scheme: core.Base{}, Params: p, NProc: i + 1}
	}
	eng := &Engine{Workers: 1, Cache: ev}
	if err := FirstError(eng.EvaluateBus(points, costs)); err != nil {
		t.Fatal(err)
	}
	st := ev.Stats()
	if st.MVASolves != 1 || st.CurveFullSolves != 1 {
		t.Errorf("MVASolves = %d (full %d), want 1: one solve at the group's largest population", st.MVASolves, st.CurveFullSolves)
	}
	if st.CurveEntries != 1 {
		t.Errorf("CurveEntries = %d, want 1 (one key, one published curve)", st.CurveEntries)
	}
	if st.DemandSolves != 1 {
		t.Errorf("DemandSolves = %d, want 1", st.DemandSolves)
	}
	before := ev.Stats()
	if _, err := ev.BusPoint(core.Base{}, p, costs, 512); err != nil {
		t.Fatal(err)
	}
	after := ev.Stats()
	if after.MVASolves != before.MVASolves {
		t.Errorf("query at the group's largest population re-solved; the group did not publish")
	}
	if after.MVAHits != before.MVAHits+1 {
		t.Errorf("MVAHits %d -> %d, want +1", before.MVAHits, after.MVAHits)
	}
}
