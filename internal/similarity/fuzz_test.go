package similarity

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/names"
)

// qgrams is the padded q-gram set of s as a string set: the map-based
// reference the interned representation (QGramIDs, JaccardSortedIDs) is
// fuzzed against.
func qgrams(s string, q int) map[string]struct{} {
	rs := []rune(paddedLower(s, q))
	set := make(map[string]struct{})
	for i := 0; i+q <= len(rs); i++ {
		set[string(rs[i:i+q])] = struct{}{}
	}
	return set
}

// jaccardQGrams is the Jaccard coefficient of a's and b's q-gram sets, by
// definition.
func jaccardQGrams(a, b string, q int) float64 {
	sa, sb := qgrams(a, q), qgrams(b, q)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := 0
	for k := range sa {
		if _, ok := sb[k]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}

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

// FuzzKernelEquivalence pins the rebuilt kernels — ASCII fast paths with
// pooled scratch, and the interned sorted-ID q-gram Jaccard — against the
// retained rune/map reference implementations on arbitrary inputs,
// including non-ASCII strings and values containing the q-gram padding
// rune '#'. Equality is exact (==), not approximate: the fast paths must
// execute the identical arithmetic. A string's Jaro-Winkler with itself
// must be exactly 1.
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

		if got, want := jaro(a, b), jaroRef(a, b); got != want {
			t.Fatalf("Jaro(%q, %q) = %v, reference %v", a, b, got, want)
		}
		if got, want := JaroWinkler(a, b), jaroWinklerRef(a, b); got != want {
			t.Fatalf("JaroWinkler(%q, %q) = %v, reference %v", a, b, got, want)
		}
		// The pair features skip the kernel for equal values.
		if self := JaroWinkler(a, a); math.Float64bits(self) != math.Float64bits(1) {
			t.Fatalf("JaroWinkler(%q, itself) = %v, want exactly 1", a, self)
		}

		// Interned sorted-ID Jaccard against the map reference.
		in := NewInterner()
		ga, gb := QGramIDs(in, a, q), QGramIDs(in, b, q)
		if got, want := JaccardSortedIDs(ga, gb), jaccardQGrams(a, b, q); got != want {
			t.Fatalf("JaccardSortedIDs(%q, %q, q=%d) = %v, reference %v", a, b, q, got, want)
		}
		// The interned gram set must be exactly the reference's set.
		if set := qgrams(a, q); len(set) != len(ga) {
			t.Fatalf("QGramIDs(%q, %d) has %d grams, the reference %d", a, q, len(ga), len(set))
		}
	})
}

// FuzzJaccardQGrams guards the q-gram kernel the feature profile cache
// snapshots per record, JaccardSortedIDs over QGramIDs: whatever the
// inputs, the similarity must stay in [0,1], be symmetric, score a string
// against itself as 1, and agree with the map-based reference bit for
// bit.
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
		// The grams pad with q-1 runes; clamp q to keep memory bounded.
		if q < 1 {
			q = 1
		}
		q = 1 + q%8
		in := NewInterner()
		jac := func(x, y string) float64 { return JaccardSortedIDs(QGramIDs(in, x, q), QGramIDs(in, y, q)) }
		s := jac(a, b)
		if s < 0 || s > 1 {
			t.Fatalf("q-gram Jaccard(%q, %q, %d) = %v out of [0,1]", a, b, q, s)
		}
		if rev := jac(b, a); rev != s {
			t.Fatalf("asymmetric: (%q,%q)=%v but (%q,%q)=%v", a, b, s, b, a, rev)
		}
		if self := jac(a, a); self != 1 {
			t.Fatalf("q-gram Jaccard(%q, %q, %d) = %v, want 1", a, a, q, self)
		}
		if ref := jaccardQGrams(a, b, q); ref != s {
			t.Fatalf("q-gram Jaccard(%q, %q, %d) = %v, the map-based reference %v", a, b, q, s, ref)
		}
	})
}
