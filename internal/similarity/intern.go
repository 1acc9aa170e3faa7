package similarity

import (
	"slices"
	"strings"
)

// Interner assigns dense uint32 IDs to distinct strings. The scoring
// stage interns every q-gram and lowered name value once per run, so
// set operations over them become integer merges instead of string-map
// probes. IDs are only meaningful within one Interner: equal IDs ⇔
// equal strings, and any set comparison built on that equivalence
// (Jaccard, subset, equality) is independent of the order IDs were
// handed out.
//
// An Interner has a single owner and no lock: its one user, the features
// package's profile build, interns on one goroutine, and nothing reads
// the interner while it does.
type Interner struct {
	ids map[string]uint32
	// strs[id] is the interner's own copy of the string with that ID.
	strs []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint32)}
}

// Intern returns the ID for s, assigning the next free one on first
// sight.
func (in *Interner) Intern(s string) uint32 {
	id, _ := in.Canonical(s)
	return id
}

// Canonical is Intern that also returns the interner's own copy of s, so
// a caller holding many equal strings (every record's lowered surname)
// keeps one shared copy instead of one per holder.
func (in *Interner) Canonical(s string) (uint32, string) {
	if id, ok := in.ids[s]; ok {
		return id, in.strs[id]
	}
	id := uint32(len(in.strs))
	// Clone so the interner never pins a larger backing string (grams
	// arrive as substrings of padded buffers).
	s = strings.Clone(s)
	in.ids[s] = id
	in.strs = append(in.strs, s)
	return id, s
}

// Len returns the number of distinct strings interned so far.
func (in *Interner) Len() int { return len(in.strs) }

// QGramIDs returns the distinct padded q-grams of s (exactly QGrams's
// gram set) as interned IDs, sorted ascending — the representation
// JaccardSortedIDs consumes. ASCII inputs slice the padded string
// byte-wise, so the only allocations are the padded buffer and the
// result slice.
func QGramIDs(in *Interner, s string, q int) []uint32 {
	if q < 1 {
		q = 1
	}
	padded := paddedLower(s, q)
	if isASCII(padded) {
		n := len(padded) - q + 1
		if n <= 0 {
			return nil
		}
		ids := make([]uint32, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, in.Intern(padded[i:i+q]))
		}
		return sortedUnique(ids)
	}
	rs := []rune(padded)
	n := len(rs) - q + 1
	if n <= 0 {
		return nil
	}
	ids := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, in.Intern(string(rs[i:i+q])))
	}
	return sortedUnique(ids)
}

func sortedUnique(ids []uint32) []uint32 {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// JaccardSortedIDs returns the Jaccard coefficient of two sorted
// strictly-increasing ID slices via a branch-light merge intersection.
// Over IDs produced by the same Interner it equals JaccardSets over the
// underlying string sets exactly.
func JaccardSortedIDs(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y {
			inter++
		}
		if x <= y {
			i++
		}
		if y <= x {
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}
