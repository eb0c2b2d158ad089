package core

import (
	"strings"
	"testing"
)

func TestBusCostsMatchTable1(t *testing.T) {
	want := map[Op]Cost{
		OpInstr:          {1, 0},
		OpCleanMissMem:   {10, 7},
		OpDirtyMissMem:   {14, 11},
		OpReadThrough:    {5, 4},
		OpWriteThrough:   {2, 1},
		OpCleanFlush:     {1, 0},
		OpDirtyFlush:     {6, 4},
		OpWriteBroadcast: {2, 1},
		OpCleanMissCache: {9, 6},
		OpDirtyMissCache: {13, 10},
		OpCycleSteal:     {1, 0},
	}
	bus := BusCosts()
	for op, w := range want {
		got := bus.Cost(op)
		if got != w {
			t.Errorf("%v: got %+v, want %+v", op, got, w)
		}
		if !bus.Defines(op) {
			t.Errorf("%v: bus table should define it", op)
		}
	}
}

func TestNetworkCostsMatchTable9(t *testing.T) {
	for _, stages := range []int{1, 4, 8, 10} {
		n := float64(stages)
		want := map[Op]Cost{
			OpInstr:        {1, 0},
			OpCleanMissMem: {9 + 2*n, 6 + 2*n},
			OpDirtyMissMem: {12 + 2*n, 9 + 2*n},
			OpCleanFlush:   {1, 0},
			OpDirtyFlush:   {7 + 2*n, 5 + 2*n},
			OpWriteThrough: {3 + 2*n, 2 + 2*n},
			OpReadThrough:  {4 + 2*n, 3 + 2*n},
		}
		tab := NetworkCosts(stages)
		for op, w := range want {
			if got := tab.Cost(op); got != w {
				t.Errorf("stages=%d %v: got %+v, want %+v", stages, op, got, w)
			}
		}
		for _, op := range []Op{OpWriteBroadcast, OpCleanMissCache, OpDirtyMissCache, OpCycleSteal} {
			if tab.Defines(op) {
				t.Errorf("stages=%d: network table must not define bus-only op %v", stages, op)
			}
		}
	}
}

func TestCostTableInterconnectNeverExceedsCPU(t *testing.T) {
	tables := []*CostTable{BusCosts(), NetworkCosts(1), NetworkCosts(8)}
	for _, tab := range tables {
		for _, op := range Ops() {
			c := tab.Cost(op)
			if c.Interconnect > c.CPU {
				t.Errorf("%s %v: interconnect %g > cpu %g", tab.Name, op, c.Interconnect, c.CPU)
			}
		}
	}
}

// TestCostTableFingerprintPinned pins the fingerprint format. Snapshot
// demand keys embed it, and ModelFingerprint does not hash it, so a
// format drift would restore demand entries that can never hit. The
// literals are the strings the evaluator's demand keys have always
// carried for these tables.
func TestCostTableFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		tab  *CostTable
		want string
	}{
		{BusCosts(), "bus|0:0x1p+00:0x0p+00|1:0x1.4p+03:0x1.cp+02|2:0x1.cp+03:0x1.6p+03|3:0x1.4p+02:0x1p+02|4:0x1p+01:0x1p+00|5:0x1p+00:0x0p+00|6:0x1.8p+02:0x1p+02|7:0x1p+01:0x1p+00|8:0x1.2p+03:0x1.8p+02|9:0x1.ap+03:0x1.4p+03|10:0x1p+00:0x0p+00|11:0x1p+01:0x1p+00"},
		{BusCostsForBlock(8), "bus (8-word blocks, 2-cycle memory)|0:0x1p+00:0x0p+00|1:0x1.cp+03:0x1.6p+03|2:0x1.6p+04:0x1.3p+04|3:0x1.4p+02:0x1p+02|4:0x1p+01:0x1p+00|5:0x1p+00:0x0p+00|6:0x1.4p+03:0x1p+03|7:0x1p+01:0x1p+00|8:0x1.ap+03:0x1.4p+03|9:0x1.5p+04:0x1.2p+04|10:0x1p+00:0x0p+00|11:0x1p+01:0x1p+00"},
		{NetworkCosts(8), "network n=8|0:0x1p+00:0x0p+00|1:0x1.9p+04:0x1.6p+04|2:0x1.cp+04:0x1.9p+04|3:0x1.4p+04:0x1.3p+04|4:0x1.3p+04:0x1.2p+04|5:0x1p+00:0x0p+00|6:0x1.7p+04:0x1.5p+04"},
	} {
		if got := tc.tab.Fingerprint(); got != tc.want {
			t.Errorf("%s fingerprint drifted:\n got %q\nwant %q", tc.tab.Name, got, tc.want)
		}
	}
	if BusCosts() == BusCosts() || BusCosts().Fingerprint() != BusCosts().Fingerprint() {
		t.Error("separately built equal tables must be distinct pointers sharing one fingerprint")
	}
}

func TestOpString(t *testing.T) {
	if OpCleanMissMem.String() != "clean miss (mem)" {
		t.Errorf("got %q", OpCleanMissMem.String())
	}
	if !strings.Contains(Op(99).String(), "99") {
		t.Errorf("out-of-range op should mention its value, got %q", Op(99).String())
	}
	seen := map[string]bool{}
	for _, op := range Ops() {
		s := op.String()
		if seen[s] {
			t.Errorf("duplicate op name %q", s)
		}
		seen[s] = true
	}
}

func TestCostOutOfRangeOp(t *testing.T) {
	bus := BusCosts()
	if bus.Cost(Op(-1)) != (Cost{}) || bus.Cost(numOps) != (Cost{}) {
		t.Error("out-of-range ops must cost zero")
	}
	if bus.Defines(Op(-1)) || bus.Defines(numOps) {
		t.Error("out-of-range ops must not be defined")
	}
}
