package similarity

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// jaro is the Jaro similarity of two strings in [0,1], dispatched as
// JaroWinkler dispatches it: the byte kernel for two ASCII strings, the
// rune kernel otherwise. Empty strings are similar (1) to each other and
// dissimilar (0) to non-empty strings.
func jaro(a, b string) float64 {
	if isASCII(a) && isASCII(b) {
		return jaroASCII(a, b)
	}
	return jaroRunes([]rune(a), []rune(b))
}

// TestJaroShortStrings pins the len ≤ 1 edge cases the window arithmetic
// must handle without a negative clamp: two single-rune strings have a
// zero matching window, so only equal runes match.
func TestJaroShortStrings(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"a", "a", 1},
		{"a", "b", 0},
		{"a", "ab", (1.0 + 0.5 + 1.0) / 3},
		{"ab", "a", (0.5 + 1.0 + 1.0) / 3},
		{"é", "é", 1}, // single non-ASCII rune
		{"é", "e", 0},
		{"a", "", 0},
		{"", "", 1},
	}
	for _, c := range cases {
		if got := jaro(c.a, c.b); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("Jaro(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if rev := jaro(c.b, c.a); rev != jaro(c.a, c.b) {
			t.Errorf("Jaro(%q, %q) asymmetric", c.a, c.b)
		}
	}
}

// TestJaroWinklerShortStrings covers the prefix boost on tiny inputs.
func TestJaroWinklerShortStrings(t *testing.T) {
	if got := JaroWinkler("a", "a"); got != 1 {
		t.Errorf("JaroWinkler(a,a) = %v, want 1", got)
	}
	if got := JaroWinkler("a", "b"); got != 0 {
		t.Errorf("JaroWinkler(a,b) = %v, want 0", got)
	}
	// One shared prefix rune: jaro=0.8333…, boosted by 0.1*(1-j).
	j := jaro("a", "ab")
	want := j + 0.1*(1-j)
	if got := JaroWinkler("a", "ab"); math.Abs(got-want) > 1e-15 {
		t.Errorf("JaroWinkler(a,ab) = %v, want %v", got, want)
	}
}

// TestJaroWindowArithmetic checks the clamp-free window formula against
// the defining expression for every plausible length.
func TestJaroWindowArithmetic(t *testing.T) {
	for la := 1; la <= 40; la++ {
		for lb := 1; lb <= 40; lb++ {
			want := max(la, lb)/2 - 1
			if want < 0 {
				want = 0
			}
			if got := jaroWindow(la, lb); got != want {
				t.Fatalf("jaroWindow(%d, %d) = %d, want %d", la, lb, got, want)
			}
		}
	}
}

// TestInterner checks ID stability, distinctness, and Len.
func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern("surname")
	if got := in.Intern("surname"); got != a {
		t.Errorf("re-interning changed the ID: %d vs %d", got, a)
	}
	b := in.Intern("city")
	if b == a {
		t.Error("distinct strings share an ID")
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	// Canonical hands every caller the interner's one copy of the string.
	id1, s1 := in.Canonical("surname")
	id2, s2 := in.Canonical(string([]byte("surname")))
	if id1 != a || id2 != a || s1 != "surname" || unsafe.StringData(s1) != unsafe.StringData(s2) {
		t.Errorf("Canonical = (%d, %q) and (%d, %q), want ID %d and one shared copy", id1, s1, id2, s2, a)
	}
}

// TestJaccardSortedIDs pins the merge Jaccard over sorted uint32 IDs.
func TestJaccardSortedIDs(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want float64
	}{
		{nil, nil, 1},
		{[]uint32{1}, nil, 0},
		{[]uint32{1, 2, 3}, []uint32{2, 3, 4}, 0.5},
		{[]uint32{1, 2}, []uint32{1, 2}, 1},
		{[]uint32{1}, []uint32{2}, 0},
	}
	for _, c := range cases {
		if got := JaccardSortedIDs(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("JaccardSortedIDs(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestSelfSimilarityIsExactlyOne pins the identities the pair features'
// short-circuits rely on: a string scores exactly 1 against itself under
// Jaro and Jaro-Winkler, on both tiers and at any length, and a non-empty
// gram set has Jaccard exactly 1 with itself. Exact means the same bits,
// so skipping the kernel for equal values changes no feature.
func TestSelfSimilarityIsExactlyOne(t *testing.T) {
	one := math.Float64bits(1)
	for _, s := range []string{
		"", "a", "é", "Capelluto", "guido foa", "łucja", "Ça va, Jérôme",
		randASCII(41, 3), "Ottolenghi-Mandelbaum-Rosenthal-Capelluto-Foa",
		"żółć gęślą jaźń — Świętochłowice, Ostrów Wielkopolski",
	} {
		if got := jaro(s, s); math.Float64bits(got) != one {
			t.Errorf("Jaro(%q, itself) = %v (%#x), want exactly 1", s, got, math.Float64bits(got))
		}
		if got := JaroWinkler(s, s); math.Float64bits(got) != one {
			t.Errorf("JaroWinkler(%q, itself) = %v (%#x), want exactly 1", s, got, math.Float64bits(got))
		}
	}
	in := NewInterner()
	for _, s := range []string{"a", "Foa", "Ottolenghi", "łucja", randASCII(60, 4)} {
		g := QGramIDs(in, s, 2)
		if got := JaccardSortedIDs(g, g); math.Float64bits(got) != one {
			t.Errorf("JaccardSortedIDs of %q's grams with themselves = %v, want exactly 1", s, got)
		}
	}
}

// TestKernelAllocs guards the zero-allocation contract of the ASCII fast
// paths and the interned merge: the pooled scratch must absorb every
// working buffer. testing.AllocsPerRun warms the pool with one
// unmeasured call first.
func TestKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race (sync.Pool drops items)")
	}
	if n := testing.AllocsPerRun(200, func() { jaro("Capelluto", "Capeluto") }); n != 0 {
		t.Errorf("Jaro allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { JaroWinkler("Rosenthal", "Rosenthol") }); n != 0 {
		t.Errorf("JaroWinkler allocates %v per op, want 0", n)
	}
	in := NewInterner()
	ga := QGramIDs(in, "Ottolenghi", 2)
	gb := QGramIDs(in, "Ottolengi", 2)
	if n := testing.AllocsPerRun(200, func() { JaccardSortedIDs(ga, gb) }); n != 0 {
		t.Errorf("JaccardSortedIDs allocates %v per op, want 0", n)
	}
	// Long strings exercise the scratch-growth path once, then reuse.
	long1 := randASCII(300, 1)
	long2 := randASCII(300, 2)
	if n := testing.AllocsPerRun(50, func() { jaro(long1, long2) }); n != 0 {
		t.Errorf("Jaro(long) allocates %v per op, want 0", n)
	}
}

func randASCII(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// TestKernelsConcurrent drives the pooled kernels from many goroutines —
// the scoring worker pool's usage pattern — and cross-checks against the
// serial result (run with -race in CI).
func TestKernelsConcurrent(t *testing.T) {
	words := make([]string, 64)
	for i := range words {
		words[i] = randASCII(3+i%12, int64(i))
	}
	type key struct{ i, j int }
	want := make(map[key]float64)
	for i := range words {
		for j := range words {
			want[key{i, j}] = jaro(words[i], words[j])
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range words {
				for j := range words {
					k := key{i, j}
					if got := jaro(words[i], words[j]); got != want[k] {
						t.Errorf("concurrent Jaro(%q, %q) = %v, want %v", words[i], words[j], got, want[k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
