package sim

import (
	"testing"

	"swcc/internal/trace"
	"swcc/internal/tracegen"
)

func benchTrace(b *testing.B, preset string, instr int) *trace.Trace {
	b.Helper()
	cfg, err := tracegen.Preset(preset)
	if err != nil {
		b.Fatal(err)
	}
	cfg.InstrPerCPU = instr
	tr, err := tracegen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkSimHotLoop times the replay loop (the min-clock pick, protocol
// dispatch, cost application, snoops and cache accesses) with each
// protocol on the 4-processor pops trace, plus Dragon on the 8-processor
// pero8 trace, where each snoop has the most other caches to consult.
// The trace is split outside the timer and replayed with RunStreams, so
// neither Validate nor PerCPU is timed. The allocs/op figure guards the
// hot loop against regressing into per-access allocation.
func BenchmarkSimHotLoop(b *testing.B) {
	cache := CacheConfig{Size: 64 * 1024, BlockSize: 16, Assoc: 2}
	pops := benchTrace(b, "pops", 20_000)
	cases := []struct {
		name  string
		tr    *trace.Trace
		proto Protocol
	}{
		{"Base", pops, ProtoBase},
		{"Dragon", pops, ProtoDragon},
		{"No-Cache", pops, ProtoNoCache},
		{"Software-Flush", pops, ProtoSoftwareFlush},
		{"Write-Invalidate", pops, ProtoWriteInvalidate},
		{"pero8-Dragon", benchTrace(b, "pero8", 10_000), ProtoDragon},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := Config{NCPU: c.tr.NCPU, Cache: cache, Protocol: c.proto}
			streams := c.tr.PerCPU()
			b.ReportAllocs()
			b.SetBytes(int64(len(c.tr.Refs)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunStreams(cfg, streams); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceRestrict covers the counting-pass preallocation in
// trace.Restrict. The validation experiments do not call it: they split
// each trace once with trace.PerCPU and replay prefixes of the streams
// through RunStreams.
func BenchmarkTraceRestrict(b *testing.B) {
	tr := benchTrace(b, "pops", 20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sub := tr.Restrict(2); len(sub.Refs) == 0 {
			b.Fatal("empty restriction")
		}
	}
}
