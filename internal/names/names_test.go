package names

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCorporaComplete(t *testing.T) {
	for _, comm := range Communities() {
		c := CorpusFor(comm)
		if len(c.MaleFirst) < 10 || len(c.FemaleFirst) < 10 || len(c.Last) < 10 || len(c.Professions) < 4 {
			t.Errorf("%s corpus too small: %d/%d/%d/%d", comm,
				len(c.MaleFirst), len(c.FemaleFirst), len(c.Last), len(c.Professions))
		}
	}
	if CorpusFor("Unknown") != CorpusFor("Poland") {
		t.Error("unknown community should fall back to Poland")
	}
}

func TestVariantsIncludeSelf(t *testing.T) {
	for _, name := range []string{"Avraham", "Ester", "Guido", "NotRegistered"} {
		vs := Variants(name)
		if len(vs) == 0 || vs[0] != name {
			t.Errorf("Variants(%q) = %v", name, vs)
		}
	}
	if len(Variants("Avraham")) < 3 {
		t.Error("Avraham should have several variants")
	}
}

func TestSameClass(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"Avraham", "Abramo", true},
		{"avraham", "ABRAM", true}, // case-insensitive
		{"Ester", "Estela", true},
		{"Guido", "Guido", true},
		{"Guido", "Massimo", false},
		{"Unregistered", "Unregistered", true},
		{"Unregistered", "Other", false},
	}
	for _, c := range cases {
		if got := SameClass(c.a, c.b); got != c.want {
			t.Errorf("SameClass(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCanonicalFoldsClass(t *testing.T) {
	for _, v := range Variants("Yitzhak") {
		if got := Canonical(v); got != "Yitzhak" {
			t.Errorf("Canonical(%q) = %q, want Yitzhak", v, got)
		}
	}
	if got := Canonical("Zanzibar"); got != "Zanzibar" {
		t.Errorf("Canonical of unregistered name = %q", got)
	}
	// Canonical folds as SameClass does: the long s is an s there, the
	// dotted capital I is no I.
	for _, c := range []struct{ name, want string }{{"Iſak", "Yitzhak"}, {"ISAK", "Yitzhak"}, {"İsak", "İsak"}} {
		if got := Canonical(c.name); got != c.want || SameClass(c.name, "Isak") != (c.want == "Yitzhak") {
			t.Errorf("Canonical(%q) = %q, want %q, agreeing with SameClass", c.name, got, c.want)
		}
	}
	// Canonical is idempotent.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		name := PickVariant(rng, "Sara")
		return Canonical(Canonical(name)) == Canonical(name)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptChangesLongNames(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	changed := 0
	for i := 0; i < 100; i++ {
		out := Corrupt(rng, "Bella")
		if out != "Bella" {
			changed++
		}
		// A single clerical error keeps the length within one rune.
		if diff := len([]rune(out)) - 5; diff < -1 || diff > 1 {
			t.Errorf("Corrupt(Bella) = %q: length off by %d", out, diff)
		}
	}
	if changed < 80 {
		t.Errorf("Corrupt changed only %d/100", changed)
	}
	if got := Corrupt(rng, "Al"); got != "Al" {
		t.Errorf("short names must be untouched, got %q", got)
	}
}

func TestCorruptDeterministicUnderSeed(t *testing.T) {
	a := Corrupt(rand.New(rand.NewSource(5)), "Margarete")
	b := Corrupt(rand.New(rand.NewSource(5)), "Margarete")
	if a != b {
		t.Errorf("Corrupt not deterministic: %q vs %q", a, b)
	}
}

func TestPickVariantStaysInClass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		v := PickVariant(rng, "Rivka")
		if !SameClass("Rivka", v) {
			t.Errorf("PickVariant escaped the class: %q", v)
		}
	}
}

func TestGenderCodes(t *testing.T) {
	if Male == Female {
		t.Error("gender codes must differ")
	}
	if Male != "0" || Female != "1" {
		t.Errorf("paper encoding is G 0/G 1, got %q/%q", Male, Female)
	}
}

func TestNicknameClassesDisjointEnough(t *testing.T) {
	// A variant claimed by two classes silently resolves to one; make
	// sure every canonical resolves to itself.
	for canon := range nicknameClasses {
		if got := Canonical(canon); !strings.EqualFold(got, canon) {
			t.Errorf("canonical %q resolves to %q", canon, got)
		}
	}
}
