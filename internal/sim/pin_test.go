package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// protocolsDigest is the FNV-64a digest of every statistic of every run
// in TestProtocolsBitIdentical, recorded before the snoop was made lazy
// and before the replay pick kept a list of active streams: those
// optimizations must not move a simulated bit.
const protocolsDigest uint64 = 0xa27519405f1a4027

// TestProtocolsBitIdentical pins all five protocols bit for bit: Base,
// Dragon, No-Cache, Software-Flush and Write-Invalidate on the pops and
// pero8 presets at reduced length, in 2 KB and 16 KB caches, with half of
// each trace as warmup, on the bus and, for the non-snoopy protocols, on
// the multistage network.
func TestProtocolsBitIdentical(t *testing.T) {
	traces := []struct {
		preset string
		instr  int
	}{{"pops", 10_000}, {"pero8", 6_000}}
	h := fnv.New64a()
	for _, tc := range traces {
		tr := genTrace(t, tc.preset, tc.instr)
		for _, size := range []int{2 * 1024, 16 * 1024} {
			for _, medium := range []Medium{MediumBus, MediumNetwork} {
				for _, proto := range []Protocol{ProtoBase, ProtoDragon, ProtoNoCache, ProtoSoftwareFlush, ProtoWriteInvalidate} {
					if medium == MediumNetwork && (proto == ProtoDragon || proto == ProtoWriteInvalidate) {
						continue
					}
					res, err := Run(Config{
						NCPU:       tr.NCPU,
						Cache:      CacheConfig{Size: size, BlockSize: 16, Assoc: 2},
						Protocol:   proto,
						Medium:     medium,
						WarmupRefs: len(tr.Refs) / 2,
					}, tr)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "%s|%d|%v|%v|%+v|%+v|%d,%d,%d,%d;", tc.preset, size, medium, proto,
						res.PerCPU, res.Snoop, res.BusBusy, res.BusWait, res.BusTransactions, res.Makespan)
				}
			}
		}
	}
	if got := h.Sum64(); got != protocolsDigest {
		t.Errorf("protocols digest %#016x, want %#016x", got, protocolsDigest)
	}
}
