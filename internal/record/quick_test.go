package record

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomRecord builds a record with arbitrary typed values, including
// unicode and separator characters that must survive serialization.
func randomRecord(rng *rand.Rand, id int64) *Record {
	alphabet := []rune("abcXYZ :|\tкогнקוגן-'.")
	r := &Record{BookID: id}
	if rng.Intn(2) == 0 {
		r.Kind = List
		r.Source = "list:x"
	} else {
		r.Source = "submitter:A B:C"
	}
	n := rng.Intn(8)
	for k := 0; k < n; k++ {
		t := ItemType(rng.Intn(NumItemTypes))
		m := 1 + rng.Intn(10)
		val := make([]rune, m)
		for i := range val {
			val[i] = alphabet[rng.Intn(len(alphabet))]
		}
		r.Add(t, string(val))
	}
	return r
}

func TestJSONLRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		recs := make([]*Record, n)
		for i := range recs {
			recs[i] = randomRecord(rng, int64(i+1))
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, recs); err != nil {
			return false
		}
		back, err := ReadAll(NewJSONLReader(&buf))
		if err != nil {
			return false
		}
		if len(back) != len(recs) {
			return false
		}
		for i := range recs {
			if back[i].BookID != recs[i].BookID || back[i].Source != recs[i].Source ||
				back[i].Kind != recs[i].Kind || !reflect.DeepEqual(back[i].Items, recs[i].Items) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPatternInvariantUnderValueChange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRecord(rng, 1)
		p := r.Pattern()
		// Changing values (not types) never changes the pattern.
		cp := r.Clone()
		for i := range cp.Items {
			cp.Items[i].Value = "changed"
		}
		return cp.Pattern() == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDictionaryEncodeSortedUnique(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]*Record, 5)
		for i := range recs {
			recs[i] = randomRecord(rng, int64(i+1))
		}
		coll, err := NewCollection(recs)
		if err != nil {
			return false
		}
		d := buildDictionary(coll)
		for _, r := range recs {
			enc := d.encode(r)
			for i := 1; i < len(enc); i++ {
				if enc[i] <= enc[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
