package core

import "fmt"

// SystemSpec parameterizes the hardware model behind Tables 1 and 9: the
// block size in words and the main-memory access latency in cycles. The
// paper's tables are the (BlockWords=4, MemoryCycles=2) instance; the
// spec exposes the knobs its cost derivations imply, so studies can ask
// questions like "what if memory were four times slower relative to the
// processor?" (the paper touches the relative-speed question for
// networks in Section 6.3).
type SystemSpec struct {
	// BlockWords is the cache block size in 4-byte words (default 4).
	BlockWords int
	// MemoryCycles is the main-memory access latency (default 2).
	MemoryCycles int
	// Stages selects a circuit-switched multistage network with that
	// many switch stages; 0 selects the shared bus.
	Stages int
}

// withDefaults fills zero fields.
func (s SystemSpec) withDefaults() SystemSpec {
	if s.BlockWords < 1 {
		s.BlockWords = 4
	}
	if s.MemoryCycles < 1 {
		s.MemoryCycles = 2
	}
	return s
}

// Table derives the cost table for the spec. Every entry follows the
// paper's own derivation pattern: 1 address cycle, MemoryCycles of
// access, one cycle per transferred word, +3 CPU cycles of miss
// handling (+1 for word references, +2 for flush bookkeeping); posted
// writes (write-through, write-back) do not wait on memory;
// cache-to-cache supply answers one cycle faster than memory on the bus.
// Networks add Stages cycles of path setup and Stages of return transit.
func (s SystemSpec) Table() *CostTable {
	s = s.withDefaults()
	w := float64(s.BlockWords)
	m := float64(s.MemoryCycles)
	if s.Stages == 0 {
		name := "bus"
		if s.BlockWords != 4 || s.MemoryCycles != 2 {
			name = fmt.Sprintf("bus (%d-word blocks, %d-cycle memory)", s.BlockWords, s.MemoryCycles)
		}
		t := &CostTable{Name: name}
		t.define(OpInstr, 1, 0)
		t.define(OpCleanMissMem, 4+m+w, 1+m+w)
		t.define(OpDirtyMissMem, 4+m+2*w, 1+m+2*w)
		t.define(OpReadThrough, 3+m, 2+m)
		t.define(OpWriteThrough, 2, 1)
		t.define(OpCleanFlush, 1, 0)
		t.define(OpDirtyFlush, 2+w, w)
		t.define(OpWriteBroadcast, 2, 1)
		t.define(OpCleanMissCache, 3+m+w, m+w)
		t.define(OpDirtyMissCache, 3+m+2*w, m+2*w)
		t.define(OpCycleSteal, 1, 0)
		// An invalidation is an address-only broadcast: same shape as a
		// posted write-through (1 address cycle on the bus), no data words.
		t.define(OpInvalidate, 2, 1)
		return t.seal()
	}
	n := float64(s.Stages)
	name := fmt.Sprintf("network n=%d", s.Stages)
	if s.BlockWords != 4 || s.MemoryCycles != 2 {
		name = fmt.Sprintf("network n=%d (%d-word blocks, %d-cycle memory)", s.Stages, s.BlockWords, s.MemoryCycles)
	}
	t := &CostTable{Name: name}
	t.define(OpInstr, 1, 0)
	t.define(OpCleanMissMem, 3+m+w+2*n, m+w+2*n)
	t.define(OpDirtyMissMem, 2+m+2*w+2*n, m+2*w-1+2*n)
	t.define(OpCleanFlush, 1, 0)
	t.define(OpDirtyFlush, 3+w+2*n, 1+w+2*n)
	t.define(OpWriteThrough, 3+2*n, 2+2*n)
	t.define(OpReadThrough, 2+m+2*n, 1+m+2*n)
	return t.seal()
}
