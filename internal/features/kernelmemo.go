package features

import "repro/internal/similarity"

// kernelMemoBits sizes a scoring worker's kernel memo: 2^14 slots per
// name kernel, 512 KiB in all. A scoring call over the benchmark's
// RandomSet compares about 18K distinct (id, id) pairs under q-gram
// Jaccard and 10K under Jaro-Winkler, equal ids included.
const kernelMemoBits = 14

// The name kernels, indexing kernelMemo.tabs.
const (
	kernelJaccard = iota // XNdist: q-gram Jaccard over the values' gram ids
	kernelJW             // XNjw: Jaro-Winkler over the lowered values
)

// kernelMemo remembers what the name kernels gave for the (value id,
// value id) pairs one evaluator has compared. It is direct-mapped — a
// slot holds the last pair that hashed to it — keyed by x<<32|y, with one
// table per kernel: a probe is a multiply, a shift and one load, with no
// lock and no string hashing. Ids are ordered, not normalized: the memo
// assumes nothing of the kernels' symmetry.
//
// A hit is bit-identical to calling the kernel: an id names the same
// value in every table its extractor publishes, and the memo serves one
// extractor at a time (PairEval.Reset clears it when the extractor
// changes). Key 0 marks an empty slot; it is the pair (0, 0), which is
// never probed, since equal ids score 1 without a kernel call.
type kernelMemo struct {
	ex    *Extractor
	tabs  [2][]memoSlot
	shift uint
}

type memoSlot struct {
	key uint64
	val float64
}

// newKernelMemo returns an empty memo of 2^bits slots per kernel; 0 bits
// is one slot, which every probe shares.
func newKernelMemo(bits uint) *kernelMemo {
	m := &kernelMemo{shift: 64 - bits}
	for k := range m.tabs {
		m.tabs[k] = make([]memoSlot, 1<<bits)
	}
	return m
}

// bind points the memo at ex, forgetting every result when ex is not the
// extractor it served.
func (m *kernelMemo) bind(ex *Extractor) {
	if m.ex != ex {
		m.ex = ex
		for _, tab := range m.tabs {
			clear(tab)
		}
	}
}

// sim returns kernel k of the distinct value ids x and y from the value
// table vals, from the memo when it has the pair. A nil memo calls the
// kernel.
func (m *kernelMemo) sim(k int, vals []nameValue, x, y uint32) float64 {
	if m == nil {
		return nameKernel(k, vals, x, y)
	}
	key := uint64(x)<<32 | uint64(y)
	// Fibonacci hashing: the top bits of the product mix both ids.
	slot := &m.tabs[k][(key*0x9E3779B97F4A7C15)>>m.shift]
	if slot.key != key {
		*slot = memoSlot{key, nameKernel(k, vals, x, y)}
	}
	return slot.val
}

// nameKernel runs kernel k on the value table's entries x and y.
func nameKernel(k int, vals []nameValue, x, y uint32) float64 {
	if k == kernelJW {
		return similarity.JaroWinkler(vals[x].lower, vals[y].lower)
	}
	return similarity.JaccardSortedIDs(vals[x].grams, vals[y].grams)
}
