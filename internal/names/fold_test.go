package names

import (
	"slices"
	"strings"
	"testing"
)

// sameClass reports whether two first names belong to the same
// equivalence class (exact match counts) the way the name index asks it:
// FoldKey(b) among ClassKeys(a).
func sameClass(a, b string) bool { return slices.Contains(ClassKeys(a), FoldKey(b)) }

// linearSameClass is the class test as it was before the class index: a
// walk over every class with EqualFold. It is the reference ClassKeys is
// held to.
func linearSameClass(a, b string) bool {
	if strings.EqualFold(a, b) {
		return true
	}
	for canon, vs := range nicknameClasses {
		inA, inB := strings.EqualFold(canon, a), strings.EqualFold(canon, b)
		for _, v := range vs {
			if strings.EqualFold(v, a) {
				inA = true
			}
			if strings.EqualFold(v, b) {
				inB = true
			}
		}
		if inA && inB {
			return true
		}
	}
	return false
}

// foldProbes are strings whose folding differs between EqualFold and
// ToLower/ToUpper, or that are not valid UTF-8.
var foldProbes = []string{
	"", "s", "S", "ſ", "k", "K", "K", "ß", "ẞ", "ss", "İ", "i", "I", "ı",
	"σ", "ς", "Σ", "µ", "μ", "Μ", "ǅ", "ǆ", "Ǆ", "\xff", "\xfe", "�", "a\xffb", "a�b",
	"Isacco", "ISACCO", "iſacco", "Yitzhak", "Šara", "šara", "אברהם",
}

func TestFoldKeyAgreesWithEqualFold(t *testing.T) {
	for _, a := range foldProbes {
		for _, b := range foldProbes {
			if got, want := FoldKey(a) == FoldKey(b), strings.EqualFold(a, b); got != want {
				t.Errorf("FoldKey(%q)==FoldKey(%q) is %v, EqualFold says %v", a, b, got, want)
			}
		}
	}
}

func TestSameClassMatchesLinearWalk(t *testing.T) {
	probes := append([]string{"Unregistered", "Foa"}, foldProbes...)
	for canon, vs := range nicknameClasses {
		probes = append(probes, canon, strings.ToUpper(canon), strings.ToLower(canon))
		probes = append(probes, vs...)
	}
	for _, a := range probes {
		for _, b := range probes {
			if got, want := sameClass(a, b), linearSameClass(a, b); got != want {
				t.Errorf("ClassKeys(%q) contains FoldKey(%q) = %v, want %v", a, b, got, want)
			}
		}
	}
}
