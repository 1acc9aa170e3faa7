package record

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestObserveMatchesBatch pins the incremental dictionary contract:
// observing records one at a time in collection order yields the exact
// dictionary (ids, keys, frequencies) and transactions that
// BuildDictionary plus Encode produce — the equivalence the streaming
// ingest stage rests on.
func TestObserveMatchesBatch(t *testing.T) {
	var records []*Record
	for i := 0; i < 40; i++ {
		r := &Record{BookID: int64(i + 1), Source: "list-1", Kind: List}
		r.Add(FirstName, fmt.Sprintf("Name%d", i%7))
		r.Add(LastName, fmt.Sprintf("Fam%d", i%3))
		r.Add(BirthYear, fmt.Sprintf("%d", 1900+i%5))
		if i%2 == 0 {
			// Duplicate item value: Observe must count document frequency
			// once per record, exactly as BuildDictionary does.
			r.Add(FirstName, fmt.Sprintf("Name%d", i%7))
		}
		records = append(records, r)
	}
	coll, err := NewCollection(records)
	if err != nil {
		t.Fatal(err)
	}

	batch := BuildDictionary(coll)
	inc := NewDictionary()
	var incEncoded [][]int
	for _, r := range coll.Records {
		incEncoded = append(incEncoded, inc.Observe(r))
	}

	if batch.Len() != inc.Len() {
		t.Fatalf("dictionary sizes diverge: %d vs %d", inc.Len(), batch.Len())
	}
	for id := 0; id < batch.Len(); id++ {
		if batch.keys[id] != inc.keys[id] {
			t.Fatalf("id %d: key %q vs %q", id, inc.keys[id], batch.keys[id])
		}
		if batch.freq[id] != inc.freq[id] {
			t.Fatalf("id %d (%s): freq %d vs %d", id, batch.keys[id], inc.freq[id], batch.freq[id])
		}
		if batch.TypeOf(id) != inc.TypeOf(id) {
			t.Fatalf("id %d: type diverges", id)
		}
	}
	for i, r := range coll.Records {
		if want := batch.Encode(r); !reflect.DeepEqual(want, incEncoded[i]) {
			t.Fatalf("record %d: transaction %v vs %v", i, incEncoded[i], want)
		}
	}
}

// TestItemKeyOneToOne pins what lets Dictionary key its map by the Item
// value instead of the "prefix:value" string: two items have equal keys
// exactly when they are equal. That holds because the prefixes are
// distinct and contain no colon, so a key splits at its first colon into
// one prefix (one type) and one value.
func TestItemKeyOneToOne(t *testing.T) {
	seen := map[string]ItemType{}
	for _, typ := range AllItemTypes() {
		p := typ.Prefix()
		if p == "" || strings.Contains(p, ":") {
			t.Fatalf("%v: prefix %q is empty or holds a colon", typ, p)
		}
		if prev, dup := seen[p]; dup {
			t.Fatalf("%v and %v share prefix %q", prev, typ, p)
		}
		seen[p] = typ
	}
	values := []string{"", "a", ":", "a:b", "F:a", "avraham"}
	keys := map[string]Item{}
	for _, typ := range AllItemTypes() {
		for _, v := range values {
			it := Item{Type: typ, Value: v}
			k := it.Key()
			if prev, dup := keys[k]; dup {
				t.Fatalf("items %+v and %+v share key %q", prev, it, k)
			}
			keys[k] = it
			if back, err := ParseItemKey(k); err != nil || back != it {
				t.Fatalf("ParseItemKey(%q) = %+v, %v; want %+v", k, back, err, it)
			}
		}
	}
}
