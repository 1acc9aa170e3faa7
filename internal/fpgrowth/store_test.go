package fpgrowth

import (
	"math/rand"
	"slices"
	"testing"
)

// naiveStore is the reference the real store is checked against: every
// stored set kept as is, every query a linear scan with a map-based
// subset test. No signatures, postings or focus lists to get wrong.
type naiveStore struct {
	sets [][]int32
}

func (n *naiveStore) add(set []int32) {
	n.sets = append(n.sets, slices.Clone(set))
}

func (n *naiveStore) subsumes(cand []int32) bool {
	for _, s := range n.sets {
		in := make(map[int32]bool, len(s))
		for _, r := range s {
			in[r] = true
		}
		all := true
		for _, r := range cand {
			all = all && in[r]
		}
		if all {
			return true
		}
	}
	return false
}

// naiveMaximal is FilterMaximal by definition: quadratic, map-based.
func naiveMaximal(sets []Itemset) []Itemset {
	var out []Itemset
	for i, a := range sets {
		maximal := true
		for j, b := range sets {
			if i == j || len(b.Items) < len(a.Items) {
				continue
			}
			if containsAll(b.Items, a.Items) && (len(b.Items) > len(a.Items) || j < i) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, a)
		}
	}
	sortCanonical(out)
	return out
}

// Fuzz universe: 24 ranks in three groups of eight that share their
// signature bits (r, r+64, r+128), so a signature that passes is wrong
// about as often as it is right.
const fuzzRanks = 192

func fuzzRank(b byte) int32 { return int32(b%8) + 64*int32(b/8%3) }

// below returns the universe ranks under limit selected by mask, ascending.
func below(limit int32, mask uint32) []int32 {
	var out []int32
	for g := int32(0); g < 3; g++ {
		for k := int32(0); k < 8; k++ {
			if r := k + 64*g; r < limit && mask&(1<<uint(8*g+k)) != 0 {
				out = append(out, r)
			}
		}
	}
	return out
}

func cloneLists(lists [][]int32) [][]int32 {
	out := make([][]int32, len(lists))
	for i, l := range lists {
		out[i] = slices.Clone(l)
	}
	return out
}

// driveStore interprets data as a sequence of store operations following
// the miner's protocol — focus at the current depth with a closure and a
// rest tail; on a miss either descend or store; store under the current
// suffix; ascend; unfocused query at any depth, which must leave the focus
// as it found it — and checks every answer, and finally the stored sets,
// against the naive store. As in the miner, a focused rank lies below the
// rank of every group above it, and no rank of a group recurs deeper.
func driveStore(t *testing.T, data []byte) {
	store := newMFIStore(fuzzRanks)
	naive := &naiveStore{}
	var groups [][]int32 // mirrors the store's suffix groups, depth 0 first
	used := make([]bool, fuzzRanks)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	mask := func() uint32 { return uint32(next()) | uint32(next())<<8 | uint32(next())<<16 }
	// free returns the unused ranks under limit selected by the next mask.
	free := func(limit int32) []int32 {
		return slices.DeleteFunc(below(limit, mask()), func(r int32) bool { return used[r] })
	}
	full := func(low []int32) []int32 {
		set := slices.Clone(low)
		for _, g := range groups {
			set = append(set, g...)
		}
		slices.Sort(set)
		return set
	}
	limit := func() int32 {
		if len(groups) == 0 {
			return fuzzRanks
		}
		g := groups[len(groups)-1]
		return g[len(g)-1]
	}
	for len(data) > 0 {
		depth := len(groups)
		switch op := next(); op % 8 {
		case 0, 1, 2, 3: // focus; on a miss descend (0, 1), store (2) or stay (3)
			r := fuzzRank(next())
			if r >= limit() || used[r] {
				continue
			}
			closure := free(r)
			rest := slices.DeleteFunc(free(r), func(x int32) bool { return slices.Contains(closure, x) })
			group := append(slices.Clone(closure), r)
			cand := full(slices.Concat(group, rest))
			got, want := store.focus(depth, r, closure, rest), naive.subsumes(cand)
			if got != want {
				t.Fatalf("focus(depth %d, suffix %v, r %d, closure %v, rest %v) = %v, naive scan says %v; stored %v",
					depth, groups, r, closure, rest, got, want, naive.sets)
			}
			if got {
				continue
			}
			switch op % 8 {
			case 0, 1:
				groups = append(groups, group)
				for _, x := range group {
					used[x] = true
				}
			case 2:
				store.add(depth+1, rest, int(op))
				naive.add(cand)
			}
		case 4: // store an untested set under the current suffix
			low := free(limit())
			if len(low)+depth == 0 {
				continue
			}
			store.add(depth, low, int(op))
			naive.add(full(low))
		case 5, 6: // ascend
			if depth > 0 {
				for _, x := range groups[depth-1] {
					used[x] = false
				}
				groups = groups[:depth-1]
			}
		case 7: // unfocused query: read-only, so legal under any suffix
			cand := below(fuzzRanks, mask())
			focused, ends, lists := slices.Clone(store.suffix), slices.Clone(store.ends), cloneLists(store.lists)
			if got, want := store.subsumes(cand), naive.subsumes(cand); got != want {
				t.Fatalf("subsumes(%v) = %v, naive scan says %v; stored %v", cand, got, want, naive.sets)
			}
			if !slices.Equal(store.suffix, focused) || !slices.Equal(store.ends, ends) ||
				!slices.EqualFunc(store.lists, lists, slices.Equal[[]int32]) {
				t.Fatalf("subsumes(%v) under suffix %v moved the focus: suffix %v -> %v, lists %v -> %v",
					cand, groups, focused, store.suffix, lists, store.lists)
			}
		}
	}
	if len(store.sets) != len(naive.sets) {
		t.Fatalf("store holds %d sets, naive store %d", len(store.sets), len(naive.sets))
	}
	for i, s := range store.sets {
		if !slices.Equal(s.ranks, naive.sets[i]) {
			t.Fatalf("stored set %d = %v, want %v", i, s.ranks, naive.sets[i])
		}
	}
}

// FuzzMFIStore drives byte-coded insert/query sequences through the store
// and the naive reference, including queries under a chain of suffix
// groups with folded closures, whose answer from the focus lists must
// equal the global linear-scan answer.
func FuzzMFIStore(f *testing.F) {
	f.Add([]byte{})
	// {1,2,65} stored under no suffix, then collision probes.
	f.Add([]byte{4, 0x06, 0x02, 0, 7, 0x02, 0, 0x02, 7, 0x06, 0x02, 0})
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 32; i++ {
		seed := make([]byte, 64+rng.Intn(448))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(driveStore)
}

// TestSignatureCollisionsStayExact: ranks 1, 65 and 129 share signature
// bit 1 (2, 66 and 130 bit 2), so these candidates pass the signature of a
// stored set they are not contained in. The signature may only reject;
// isSubset and the exact containment test of the focused rank decide.
func TestSignatureCollisionsStayExact(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stored [][]int32
		cand   []int32
		want   bool
	}{
		{"same bits, other ranks", [][]int32{{1, 2}}, []int32{65, 66}, false},
		{"one rank swapped for its collider", [][]int32{{1, 2, 65}}, []int32{1, 2, 129}, false},
		{"collider of the only rank", [][]int32{{1}}, []int32{129}, false},
		{"bits spread over two stored sets", [][]int32{{1, 66}, {65, 2}}, []int32{1, 2}, false},
		{"true subset among colliders", [][]int32{{1, 2, 65}, {1, 66, 129}}, []int32{66, 129}, true},
		{"equal set", [][]int32{{1, 65, 129}}, []int32{1, 65, 129}, true},
	} {
		store := newMFIStore(fuzzRanks)
		for _, s := range tc.stored {
			store.put(s, 1, 0)
		}
		if got := store.subsumes(tc.cand); got != tc.want {
			t.Errorf("%s: subsumes(%v) over %v = %v, want %v", tc.name, tc.cand, tc.stored, got, tc.want)
		}
		// The same candidate as a focused chain: highest rank at depth 0,
		// next at depth 1, the rest as the tail — once as the rest, once
		// folded into the depth-1 group as its closure.
		if n := len(tc.cand); n >= 2 {
			for _, folded := range []bool{false, true} {
				if store.focus(0, tc.cand[n-1], nil, []int32{0}) {
					t.Fatalf("%s: rank 0 is stored nowhere", tc.name)
				}
				closure, rest := []int32(nil), tc.cand[:n-2]
				if folded {
					closure, rest = rest, nil
				}
				if got := store.focus(1, tc.cand[n-2], closure, rest); got != tc.want {
					t.Errorf("%s: focused query of %v (folded %v) over %v = %v, want %v",
						tc.name, tc.cand, folded, tc.stored, got, tc.want)
				}
			}
		}
	}
}
