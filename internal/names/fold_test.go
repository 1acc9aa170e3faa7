package names

import (
	"slices"
	"strings"
	"testing"
)

// linearSameClass is SameClass as it was before the class index: a walk
// over every class with EqualFold. It is the reference the index-backed
// SameClass and ClassKeys are held to.
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
		keys := ClassKeys(a)
		for _, b := range probes {
			want := linearSameClass(a, b)
			if got := SameClass(a, b); got != want {
				t.Errorf("SameClass(%q,%q) = %v, want %v", a, b, got, want)
			}
			if got := slices.Contains(keys, FoldKey(b)); got != want {
				t.Errorf("ClassKeys(%q) contains FoldKey(%q) = %v, want %v", a, b, got, want)
			}
		}
	}
}
