package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// simulatedIDs are the experiments whose series come from the
// trace-driven simulator. The analytical goldens do not cover them.
var simulatedIDs = []string{"fig1", "fig2", "fig3", "fig10sim", "blocksize"}

// simulatedDigest is the FNV-64a digest of every simulated series at
// TraceScale 0.25 and seed 12345, recorded before sim.RunStreams, the
// shadow-run reuse and the holder-count snoop filter existed: those
// optimizations must not move a simulated bit.
const simulatedDigest uint64 = 0xe84729a8bec2ff3b

// TestSimulatedFiguresBitIdentical hashes math.Float64bits of every X
// and Y of the simulated experiments, in the same layout perfbench's
// sim_validate digest uses.
func TestSimulatedFiguresBitIdentical(t *testing.T) {
	h := fnv.New64a()
	for _, id := range simulatedIDs {
		ds, err := Run(id, Options{TraceScale: 0.25, Seed: 12345})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, sr := range ds.Series {
			fmt.Fprintf(h, "%s|%s|", id, sr.Name)
			for i := range sr.Y {
				fmt.Fprintf(h, "%x,%x;", math.Float64bits(sr.X[i]), math.Float64bits(sr.Y[i]))
			}
		}
	}
	if got := h.Sum64(); got != simulatedDigest {
		t.Errorf("simulated figures digest %#016x, want %#016x", got, simulatedDigest)
	}
}
