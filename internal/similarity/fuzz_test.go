package similarity

import (
	"math/rand"
	"testing"

	"repro/internal/names"
)

// FuzzJaccardQGrams guards the q-gram kernel the feature profile cache
// snapshots per record: whatever the inputs, the similarity must stay in
// [0,1], be symmetric, score a string against itself as 1, and agree with
// the precomputed-set path (JaccardSets over QGrams) bit for bit.
// jaroRef is the seed's rune-allocating Jaro — the reference the tiered
// kernel (ASCII fast path + pooled scratch) is fuzzed against.
func jaroRef(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(0, i-window)
		hi := min(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if !matchB[j] && ra[i] == rb[j] {
				matchA[i], matchB[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// jaroWinklerRef applies the standard Winkler prefix boost to jaroRef.
func jaroWinklerRef(a, b string) float64 {
	const (
		prefixScale = 0.1
		prefixCap   = 4
	)
	j := jaroRef(a, b)
	ra, rb := []rune(a), []rune(b)
	l := 0
	for l < len(ra) && l < len(rb) && l < prefixCap && ra[l] == rb[l] {
		l++
	}
	return j + float64(l)*prefixScale*(1-j)
}

// levenshteinRef is the seed's slice-allocating Levenshtein reference.
func levenshteinRef(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// FuzzKernelEquivalence pins the rebuilt kernels — ASCII fast paths with
// pooled scratch, and the interned sorted-ID q-gram Jaccard — against the
// retained rune/map reference implementations on arbitrary inputs,
// including non-ASCII strings and values containing the q-gram padding
// rune '#'. Equality is exact (==), not approximate: the fast paths must
// execute the identical arithmetic.
func FuzzKernelEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []string{"Guido", "Foa", "Avraham", "Rywka", "Capelluto", "Torino", ""} {
		f.Add(n, n, 2)
		f.Add(n, names.Corrupt(rng, n), 2)
	}
	f.Add("##a", "a##", 2)     // padding runes inside values
	f.Add("héllo", "hèllo", 3) // multi-byte runes
	f.Add("a", "b", 1)         // single-rune window edge
	f.Add("ab", "ba", 2)       // transposition
	f.Add("Mandelbaum", "Mandelboim", 4)
	f.Fuzz(func(t *testing.T, a, b string, q int) {
		if q < 1 {
			q = 1
		}
		q = 1 + q%8

		if got, want := Jaro(a, b), jaroRef(a, b); got != want {
			t.Fatalf("Jaro(%q, %q) = %v, reference %v", a, b, got, want)
		}
		if got, want := JaroWinkler(a, b), jaroWinklerRef(a, b); got != want {
			t.Fatalf("JaroWinkler(%q, %q) = %v, reference %v", a, b, got, want)
		}
		if got, want := Levenshtein(a, b), levenshteinRef(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %d, reference %d", a, b, got, want)
		}

		// Interned sorted-ID Jaccard against the map reference.
		in := NewInterner()
		ga, gb := QGramIDs(in, a, q), QGramIDs(in, b, q)
		if got, want := JaccardSortedIDs(ga, gb), JaccardQGrams(a, b, q); got != want {
			t.Fatalf("JaccardSortedIDs(%q, %q, q=%d) = %v, reference %v", a, b, q, got, want)
		}
		// The interned gram set must be exactly QGrams's set.
		if set := QGrams(a, q); len(set) != len(ga) {
			t.Fatalf("QGramIDs(%q, %d) has %d grams, QGrams has %d", a, q, len(ga), len(set))
		}
		// And agree with the directly-derived ordered list.
		if list := QGramsList(a, q); len(list) != len(ga) {
			t.Fatalf("QGramsList(%q, %d) has %d grams, QGramIDs has %d", a, q, len(list), len(ga))
		}
	})
}

func FuzzJaccardQGrams(f *testing.F) {
	// Seed corpus: clean names plus corrupted generator output — the
	// clerical-error variants the pipeline actually compares.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []string{"Guido", "Foa", "Avraham", "Rywka", "Capelluto", "Torino", ""} {
		f.Add(n, n, 2)
		f.Add(n, names.Corrupt(rng, n), 2)
		f.Add(names.Corrupt(rng, n), names.Corrupt(rng, n), 3)
	}
	f.Add("a", "b", 0)
	f.Add("héllo", "hèllo", 2) // multi-byte runes
	f.Fuzz(func(t *testing.T, a, b string, q int) {
		// QGrams pads with q-1 runes; clamp q to keep memory bounded.
		if q < 1 {
			q = 1
		}
		q = 1 + q%8
		s := JaccardQGrams(a, b, q)
		if s < 0 || s > 1 {
			t.Fatalf("JaccardQGrams(%q, %q, %d) = %v out of [0,1]", a, b, q, s)
		}
		if rev := JaccardQGrams(b, a, q); rev != s {
			t.Fatalf("asymmetric: (%q,%q)=%v but (%q,%q)=%v", a, b, s, b, a, rev)
		}
		if self := JaccardQGrams(a, a, q); self != 1 {
			t.Fatalf("JaccardQGrams(%q, %q, %d) = %v, want 1", a, a, q, self)
		}
		if viaSets := JaccardSets(QGrams(a, q), QGrams(b, q)); viaSets != s {
			t.Fatalf("JaccardSets disagrees with JaccardQGrams: %v vs %v", viaSets, s)
		}
	})
}
