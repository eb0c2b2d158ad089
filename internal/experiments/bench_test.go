package experiments

import "testing"

// BenchmarkValidationPass times one pass of the paper's model-vs-
// simulation Figures 1-3 at the presets' full length and a fixed seed:
// trace generation, parameter measurement and every simulation, the
// same work as one pass of perfbench's sim_validate workload.
func BenchmarkValidationPass(b *testing.B) {
	opt := Options{Seed: 12345}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, id := range []string{"fig1", "fig2", "fig3"} {
			if _, err := Run(id, opt); err != nil {
				b.Fatalf("%s: %v", id, err)
			}
		}
	}
}
