package core

import "fmt"

// Op identifies a hardware operation in the system model (paper Table 1).
type Op int

// The hardware operations of the system model. "Mem" misses are satisfied
// from main memory; "Cache" misses are satisfied by a cache-to-cache
// transfer (Dragon only).
const (
	// OpInstr is ordinary instruction execution (everything except a
	// flush instruction).
	OpInstr Op = iota
	// OpCleanMissMem is a cache miss replacing a clean block, filled
	// from memory.
	OpCleanMissMem
	// OpDirtyMissMem is a cache miss replacing a dirty block (which
	// must be written back), filled from memory.
	OpDirtyMissMem
	// OpReadThrough is a No-Cache load of an uncacheable shared word
	// straight from memory.
	OpReadThrough
	// OpWriteThrough is a No-Cache store of an uncacheable shared word
	// straight to memory.
	OpWriteThrough
	// OpCleanFlush is a Software-Flush flush instruction applied to a
	// clean block (invalidate only).
	OpCleanFlush
	// OpDirtyFlush is a Software-Flush flush instruction applied to a
	// dirty block (write back then invalidate).
	OpDirtyFlush
	// OpWriteBroadcast is a Dragon store to a block present in another
	// cache: the word is broadcast on the bus.
	OpWriteBroadcast
	// OpCleanMissCache is a Dragon miss replacing a clean block,
	// supplied by another cache that holds the block dirty.
	OpCleanMissCache
	// OpDirtyMissCache is a Dragon miss replacing a dirty block,
	// supplied by another cache.
	OpDirtyMissCache
	// OpCycleSteal is a cycle stolen from a processor whose cache
	// updates its copy on hearing a write-broadcast.
	OpCycleSteal
	// OpInvalidate is an invalidation-based snoopy protocol's store to a
	// block present in another cache: an address-only bus broadcast that
	// invalidates the other copies (extension; Write-Invalidate and the
	// hybrid update/invalidate schemes use it). Like Dragon's operations
	// it needs a broadcast medium, so network cost tables leave it
	// undefined.
	OpInvalidate

	numOps
)

var opNames = [numOps]string{
	"instruction",
	"clean miss (mem)",
	"dirty miss (mem)",
	"read through",
	"write through",
	"clean flush",
	"dirty flush",
	"write broadcast",
	"clean miss (cache)",
	"dirty miss (cache)",
	"cycle steal",
	"invalidate",
}

// String returns the paper's name for the operation.
func (o Op) String() string {
	if o < 0 || o >= numOps {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// Ops returns all operations in the system model, in Table 1 order.
func Ops() []Op {
	ops := make([]Op, numOps)
	for i := range ops {
		ops[i] = Op(i)
	}
	return ops
}

// Cost gives the time for one occurrence of an operation: CPU is the total
// processor time in cycles absent contention; Interconnect is the portion
// of that time during which the bus (or network path) is held. Interconnect
// never exceeds CPU.
type Cost struct {
	// CPU is the total processor time in cycles absent contention.
	CPU float64
	// Interconnect is the portion of CPU during which the bus (or
	// network path) is held.
	Interconnect float64
}

// CostTable maps each operation to its cost. Operations a scheme never
// issues may be absent; looking them up yields zero cost. A table is
// immutable once built, so its content fingerprint is computed once, at
// construction.
type CostTable struct {
	// Name describes the hardware configuration ("bus", "network n=8").
	Name  string
	costs [numOps]Cost
	set   [numOps]bool
	fp    string
}

// Fingerprint returns the table's content key: the Name, then each
// defined operation's index with the exact bits of its CPU and
// interconnect costs. Two separately built tables with equal content
// share it, so caches keyed on it share entries across table pointers.
// Snapshot demand keys embed this string: changing its format strands
// every restored demand entry.
func (t *CostTable) Fingerprint() string { return t.fp }

// Cost returns the cost of op (zero if the table does not define it).
func (t *CostTable) Cost(op Op) Cost {
	if op < 0 || op >= numOps {
		return Cost{}
	}
	return t.costs[op]
}

// Defines reports whether the table assigns a cost to op.
func (t *CostTable) Defines(op Op) bool {
	return op >= 0 && op < numOps && t.set[op]
}

// define records the cost of one operation.
func (t *CostTable) define(op Op, cpu, interconnect float64) {
	t.costs[op] = Cost{CPU: cpu, Interconnect: interconnect}
	t.set[op] = true
}

// seal computes the fingerprint of a fully defined table and returns it.
func (t *CostTable) seal() *CostTable {
	fp := t.Name
	for op, c := range t.costs {
		if t.set[op] {
			fp += fmt.Sprintf("|%d:%x:%x", op, c.CPU, c.Interconnect)
		}
	}
	t.fp = fp
	return t
}

// BusCosts returns the bus system model of paper Table 1: a RISC machine
// with a combined I+D cache, 4-word blocks, 1-cycle instructions, and a
// bus whose cycle time equals the CPU cycle time.
func BusCosts() *CostTable { return BusCostsForBlock(4) }

// BusCostsForBlock generalizes Table 1 to a block of `words` 4-byte words
// (>= 1), following the paper's own cost derivations; at words = 4 every
// entry equals Table 1. Word operations (read/write-through, broadcast)
// do not scale with the block. See SystemSpec for the full
// parameterization.
func BusCostsForBlock(words int) *CostTable {
	if words < 1 {
		words = 1
	}
	return SystemSpec{BlockWords: words}.Table()
}

// NetworkCosts returns the system model of paper Table 9 for an unbuffered
// circuit-switched multistage network with the given number of switch
// stages (a machine with 2^stages processors). Paths are one word wide and
// blocks are 4 words, as on the bus. Dragon's bus-specific operations are
// not defined: snoopy protocols need a broadcast medium.
func NetworkCosts(stages int) *CostTable { return NetworkCostsForBlock(stages, 4) }

// NetworkCostsForBlock generalizes Table 9 to `words`-word blocks using
// the paper's derivation (path setup n, 1 address cycle, 2 memory cycles,
// n return transit, pipelined data). At words = 4 every entry equals
// Table 9. See SystemSpec for the full parameterization.
func NetworkCostsForBlock(stages, words int) *CostTable {
	if words < 1 {
		words = 1
	}
	return SystemSpec{BlockWords: words, Stages: stages}.Table()
}
