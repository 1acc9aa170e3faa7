package names

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// FuzzCanonical guards the name-normalization kernel the preprocessing
// stage and the profile cache depend on: canonicalization must be the
// class lookup of the FoldKey form — whichever of its two folding paths,
// stack buffer or FoldKey, a name takes — be idempotent, stay inside the
// name's equivalence class, and be case-insensitive: names equal under
// strings.EqualFold, the folding SameClass compares by, canonicalize to
// names equal under it. Case mappings outside simple folding are not
// case differences there: strings.ToLower maps "İ" to "i", which
// EqualFold keeps apart, so a lowered or uppered name is only compared
// when EqualFold holds for it.
func FuzzCanonical(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []string{"Avraham", "Yitzhak", "Bella", "Guido", "Sara", "Maria", "Isak", ""} {
		f.Add(n)
		f.Add(strings.ToUpper(n))
		f.Add(Corrupt(rng, n)) // corrupted generator output
		f.Add(Corrupt(rng, Corrupt(rng, n)))
	}
	// Non-ASCII names, whose case mapping is Unicode's, and names over
	// the 64-byte buffer, ASCII or not.
	for _, n := range []string{"ÍSAK", "ſara", "Iſak", "İsak", "MARÍA", "Ábrahám", "Jürgen", "\xffGuido", "YITZHAKÉ",
		strings.Repeat("A", 64), strings.Repeat("A", 65), "AVRAHAM" + strings.Repeat(" ", 58), strings.Repeat("Ö", 40)} {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, name string) {
		c := Canonical(name)
		want := name
		if w, ok := canonicalOf[FoldKey(name)]; ok {
			want = w
		}
		if c != want {
			t.Fatalf("Canonical(%q) = %q, the lookup of FoldKey gives %q", name, c, want)
		}
		if again := Canonical(c); again != c {
			t.Fatalf("Canonical not idempotent: %q -> %q -> %q", name, c, again)
		}
		if !SameClass(name, c) {
			t.Fatalf("Canonical(%q) = %q left the equivalence class", name, c)
		}
		// Every rune moved one step along its fold orbit: "s" to "ſ",
		// "k" to the Kelvin sign, "A" to "a".
		for _, x := range []string{strings.Map(unicode.SimpleFold, name), strings.ToLower(name), strings.ToUpper(name)} {
			if !strings.EqualFold(x, name) {
				continue
			}
			if cx := Canonical(x); !strings.EqualFold(cx, c) {
				t.Fatalf("case-sensitive canonicalization: %q -> %q, %q -> %q", x, cx, name, c)
			}
		}
		vs := Variants(c)
		if len(vs) == 0 || vs[0] != c {
			t.Fatalf("Variants(%q) = %v, want the canonical first", c, vs)
		}
		for _, v := range vs {
			if !SameClass(c, v) {
				t.Fatalf("variant %q not SameClass with canonical %q", v, c)
			}
		}
	})
}

// FuzzCorrupt checks the clerical-error generator never panics, preserves
// short names, and emits valid UTF-8 — its output feeds the q-gram and
// Jaro-Winkler kernels directly.
func FuzzCorrupt(f *testing.F) {
	for _, n := range []string{"Guido", "Foa", "ab", "Rywka", "Zimbul", ""} {
		f.Add(int64(1), n)
		f.Add(int64(99), n)
	}
	f.Fuzz(func(t *testing.T, seed int64, name string) {
		if !utf8.ValidString(name) {
			t.Skip("generator inputs are valid UTF-8")
		}
		rng := rand.New(rand.NewSource(seed))
		got := Corrupt(rng, name)
		if utf8.RuneCountInString(name) < 3 && got != name {
			t.Fatalf("Corrupt changed short name %q -> %q", name, got)
		}
		if !utf8.ValidString(got) {
			t.Fatalf("Corrupt(%q) produced invalid UTF-8 %q", name, got)
		}
		n := utf8.RuneCountInString(name)
		g := utf8.RuneCountInString(got)
		if g < n-1 || g > n+1 {
			t.Fatalf("Corrupt(%q) changed length %d -> %d", name, n, g)
		}
	})
}
