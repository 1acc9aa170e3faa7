package record

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestItemTypeMetadata(t *testing.T) {
	seenPrefix := map[string]bool{}
	for _, ty := range AllItemTypes() {
		if ty.String() == "" {
			t.Errorf("type %d has empty name", ty)
		}
		p := ty.Prefix()
		if p == "" || p == "?" {
			t.Errorf("type %v has bad prefix %q", ty, p)
		}
		if seenPrefix[p] {
			t.Errorf("duplicate prefix %q", p)
		}
		seenPrefix[p] = true
		back, ok := TypeForPrefix(p)
		if !ok || back != ty {
			t.Errorf("TypeForPrefix(%q) = %v, %v; want %v", p, back, ok, ty)
		}
	}
	if len(seenPrefix) != NumItemTypes {
		t.Errorf("expected %d prefixes, got %d", NumItemTypes, len(seenPrefix))
	}
}

func TestPlaceItemRoundTrip(t *testing.T) {
	for pt := 0; pt < NumPlaceTypes; pt++ {
		for pp := 0; pp < NumPlaceParts; pp++ {
			ty := PlaceItem(PlaceType(pt), PlacePart(pp))
			if !ty.IsPlace() {
				t.Fatalf("PlaceItem(%d,%d)=%v is not a place", pt, pp, ty)
			}
			gotPT, gotPP, ok := ty.Place()
			if !ok || gotPT != PlaceType(pt) || gotPP != PlacePart(pp) {
				t.Errorf("Place() round trip failed for %v: got %v/%v/%v", ty, gotPT, gotPP, ok)
			}
		}
	}
	if _, _, ok := FirstName.Place(); ok {
		t.Error("FirstName.Place() should not be ok")
	}
}

func TestTypeClassification(t *testing.T) {
	if !FirstName.IsName() || !MaidenName.IsName() {
		t.Error("name types misclassified")
	}
	if Gender.IsName() || BirthCity.IsName() {
		t.Error("non-name classified as name")
	}
}

func TestRecordAccessors(t *testing.T) {
	r := &Record{BookID: 7}
	r.Add(FirstName, "Guido")
	r.Add(FirstName, "Massimo")
	r.Add(LastName, "Foa")
	r.Add(Gender, "") // empty values are skipped

	if got := r.Values(FirstName); !reflect.DeepEqual(got, []string{"Guido", "Massimo"}) {
		t.Errorf("Values(FirstName) = %v", got)
	}
	if v, ok := r.First(LastName); !ok || v != "Foa" {
		t.Errorf("First(LastName) = %q, %v", v, ok)
	}
	if r.Pattern().Has(Gender) {
		t.Error("empty value should not be added")
	}
	if _, ok := r.First(SpouseName); ok {
		t.Error("First on absent type should be !ok")
	}
}

func TestRecordKeysSortedDeduped(t *testing.T) {
	r := &Record{}
	r.Add(LastName, "Foa")
	r.Add(FirstName, "Guido")
	r.Add(FirstName, "Guido") // duplicate
	keys := r.Keys()
	if !reflect.DeepEqual(keys, []string{"F:Guido", "L:Foa"}) {
		t.Errorf("Keys() = %v", keys)
	}
}

func TestPattern(t *testing.T) {
	r := &Record{}
	r.Add(FirstName, "Guido")
	r.Add(LastName, "Foa")
	p := r.Pattern()
	if !p.Has(FirstName) || !p.Has(LastName) || p.Has(Gender) {
		t.Errorf("pattern %v wrong membership", p)
	}
	if n := len(p.Types()); n != 2 {
		t.Errorf("pattern size = %d", n)
	}
	if got := p.Types(); len(got) != 2 || got[0] != LastName || got[1] != FirstName {
		t.Errorf("pattern types = %v", got)
	}
	full := FullPattern()
	if n := len(full.Types()); n != NumItemTypes {
		t.Errorf("full pattern size = %d", n)
	}
}

func TestPatternEqualityMatchesTypeSets(t *testing.T) {
	a := &Record{}
	a.Add(FirstName, "X")
	a.Add(LastName, "Y")
	b := &Record{}
	b.Add(LastName, "Q")
	b.Add(FirstName, "R")
	b.Add(FirstName, "S") // multiplicity does not change the pattern
	if a.Pattern() != b.Pattern() {
		t.Error("records with same type sets must share a pattern")
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := &Record{BookID: 1}
	r.Add(FirstName, "Guido")
	cp := r.Clone()
	cp.Items[0].Value = "Massimo"
	if v, _ := r.First(FirstName); v != "Guido" {
		t.Error("Clone shares item storage")
	}
}

func TestCollection(t *testing.T) {
	a := &Record{BookID: 1}
	b := &Record{BookID: 2}
	c, err := NewCollection([]*Record{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.ByID(2) != b || c.ByID(9) != nil {
		t.Error("ByID lookup wrong")
	}
	if c.Index(1) != 0 || c.Index(9) != -1 {
		t.Error("Index lookup wrong")
	}
	if _, err := NewCollection([]*Record{a, a}); err == nil {
		t.Error("duplicate BookIDs must be rejected")
	}
}

func TestPrevalenceAndCardinality(t *testing.T) {
	a := &Record{BookID: 1}
	a.Add(FirstName, "Guido")
	a.Add(FirstName, "Massimo")
	b := &Record{BookID: 2}
	b.Add(FirstName, "Guido")
	b.Add(LastName, "Foa")
	c, _ := NewCollection([]*Record{a, b})

	prev := c.Prevalence()
	if prev[FirstName] != 2 || prev[LastName] != 1 || prev[Gender] != 0 {
		t.Errorf("prevalence = %v", prev[:3])
	}
	distinct, occ := c.Cardinality()
	if distinct[FirstName] != 2 {
		t.Errorf("distinct first names = %d", distinct[FirstName])
	}
	if occ[FirstName] != 3 {
		t.Errorf("first-name occurrences = %d", occ[FirstName])
	}
}

func TestDictionary(t *testing.T) {
	a := &Record{BookID: 1}
	a.Add(FirstName, "Guido")
	a.Add(LastName, "Foa")
	b := &Record{BookID: 2}
	b.Add(FirstName, "Guido")
	c, _ := NewCollection([]*Record{a, b})
	d := BuildDictionary(c)

	if d.Len() != 2 {
		t.Fatalf("dictionary size = %d", d.Len())
	}
	id, ok := d.ids[Item{Type: FirstName, Value: "Guido"}]
	if !ok {
		t.Fatal("F:Guido not interned")
	}
	if d.freq[id] != 2 {
		t.Errorf("freq = %d", d.freq[id])
	}
	if d.TypeOf(id) != FirstName {
		t.Errorf("TypeOf = %v", d.TypeOf(id))
	}
	if d.keys[id] != "F:Guido" {
		t.Errorf("key = %q", d.keys[id])
	}
	enc := d.Encode(a)
	if len(enc) != 2 {
		t.Errorf("Encode(a) = %v", enc)
	}
	// Unknown items are skipped.
	x := &Record{BookID: 3}
	x.Add(Gender, "0")
	if got := d.Encode(x); len(got) != 0 {
		t.Errorf("Encode(unknown) = %v", got)
	}
}

func TestMostFrequent(t *testing.T) {
	var recs []*Record
	for i := 0; i < 100; i++ {
		r := &Record{BookID: int64(i)}
		r.Add(Gender, "0") // appears everywhere
		if i < 3 {
			r.Add(FirstName, "Rare")
		}
		recs = append(recs, r)
	}
	c, _ := NewCollection(recs)
	d := BuildDictionary(c)
	top := d.MostFrequent(0.0001) // tiny fraction still yields >= 1 item
	if len(top) != 1 {
		t.Fatalf("MostFrequent = %v", top)
	}
	if d.keys[top[0]] != "G:0" {
		t.Errorf("top item = %q", d.keys[top[0]])
	}
	if got := d.MostFrequent(0); got != nil {
		t.Errorf("MostFrequent(0) = %v", got)
	}
}

// TestJSONLRoundTrip drains JSONL inputs through the streaming
// JSONLReader with ReadAll: what WriteJSONL wrote comes back whole,
// blank lines are skipped, and a bad line — malformed JSON, an unknown
// item prefix, a line past the scanner's limit — fails naming its line
// and wrapping the cause.
func TestJSONLRoundTrip(t *testing.T) {
	a := &Record{BookID: 1, Source: "list:x", Kind: List}
	a.Add(FirstName, "Guido")
	a.Add(BirthCity, "Torino")
	b := &Record{BookID: 2, Source: "submitter:Y", Kind: Testimony}
	b.Add(LastName, "Foa")

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []*Record{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	lineA, lineB := lines[0], lines[1]
	var syntaxErr *json.SyntaxError
	for _, tc := range []struct {
		name    string
		in      string
		want    []*Record
		wantErr string // error prefix; "" for success
		cause   func(error) bool
	}{
		{name: "round trip", in: buf.String(), want: []*Record{a, b}},
		{name: "blank lines", in: "\n  \n" + lineA + "\n\t\n" + lineB + "\n", want: []*Record{a, b}},
		{name: "empty", in: "", want: nil},
		{
			name: "malformed line", in: lineA + "\n{\"book_id\": 3,\n" + lineB,
			wantErr: "record: line 3: ", cause: func(err error) bool { return errors.As(err, &syntaxErr) },
		},
		{name: "unknown item prefix", in: `{"book_id":1,"items":["ZZ:x"]}`, wantErr: "record: line 1: record: unknown item prefix"},
		{
			name: "over-long line", in: lineA + strings.Repeat("x", maxJSONLLine+1) + "\n" + lineB,
			wantErr: "record: line 2: ", cause: func(err error) bool { return errors.Is(err, bufio.ErrTooLong) },
		},
	} {
		back, err := ReadAll(NewJSONLReader(strings.NewReader(tc.in)))
		if tc.wantErr != "" {
			if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want prefix %q", tc.name, err, tc.wantErr)
			} else if tc.cause != nil && !tc.cause(err) {
				t.Errorf("%s: err = %v does not wrap its cause", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(back, tc.want) {
			t.Errorf("%s: read %v, want %v", tc.name, back, tc.want)
		}
	}
}

func TestParseItemKeyErrors(t *testing.T) {
	if _, err := ParseItemKey("noseparator"); err == nil {
		t.Error("missing separator should fail")
	}
	if _, err := ParseItemKey("ZZ:value"); err == nil {
		t.Error("unknown prefix should fail")
	}
	it, err := ParseItemKey("F:with:colons")
	if err != nil || it.Value != "with:colons" {
		t.Errorf("colon values must survive: %v %v", it, err)
	}
}

func TestMakePairProperties(t *testing.T) {
	f := func(a, b int64) bool {
		p := MakePair(a, b)
		if p.A > p.B {
			return false
		}
		if p != MakePair(b, a) {
			return false
		}
		return (p.A == a || p.B == a) && (p.A == b || p.B == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
