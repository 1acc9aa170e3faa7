package record

import (
	"fmt"
	"slices"
	"sort"
)

// Collection is an ordered set of records with index structures shared by
// the blocking algorithms: a BookID index and per-item posting lists.
type Collection struct {
	Records []*Record

	byID map[int64]int // BookID -> index into Records
}

// NewCollection builds a collection over the given records. BookIDs must be
// unique; duplicates return an error.
func NewCollection(records []*Record) (*Collection, error) {
	c := &Collection{
		Records: records,
		byID:    make(map[int64]int, len(records)),
	}
	for i, r := range records {
		if _, dup := c.byID[r.BookID]; dup {
			return nil, fmt.Errorf("record: duplicate BookID %d", r.BookID)
		}
		c.byID[r.BookID] = i
	}
	return c, nil
}

// Len returns the number of records.
func (c *Collection) Len() int { return len(c.Records) }

// ByID returns the record with the given BookID, or nil.
func (c *Collection) ByID(id int64) *Record {
	if i, ok := c.byID[id]; ok {
		return c.Records[i]
	}
	return nil
}

// Index returns the positional index of a BookID, or -1.
func (c *Collection) Index(id int64) int {
	if i, ok := c.byID[id]; ok {
		return i
	}
	return -1
}

// PatternCounts returns the number of records sharing each data pattern.
func (c *Collection) PatternCounts() map[Pattern]int {
	m := make(map[Pattern]int)
	for _, r := range c.Records {
		m[r.Pattern()]++
	}
	return m
}

// Prevalence returns, per item type, how many records carry at least one
// value of that type (Table 3).
func (c *Collection) Prevalence() [NumItemTypes]int {
	var counts [NumItemTypes]int
	for _, r := range c.Records {
		p := r.Pattern()
		for t := 0; t < NumItemTypes; t++ {
			if p.Has(ItemType(t)) {
				counts[t]++
			}
		}
	}
	return counts
}

// Cardinality returns, per item type, the number of distinct values and the
// total number of value occurrences (Table 4: items and records/item).
func (c *Collection) Cardinality() (distinct, occurrences [NumItemTypes]int) {
	sets := make([]map[string]struct{}, NumItemTypes)
	for t := range sets {
		sets[t] = make(map[string]struct{})
	}
	for _, r := range c.Records {
		for _, it := range r.Items {
			sets[it.Type][it.Value] = struct{}{}
			occurrences[it.Type]++
		}
	}
	for t, s := range sets {
		distinct[t] = len(s)
	}
	return distinct, occurrences
}

// Dictionary maps canonical item keys ("F:guido") to dense integer ids and
// back, and tracks per-item document frequency (number of records carrying
// the item). Itemset mining operates on the integer ids.
type Dictionary struct {
	// ids is keyed by the Item value, which is one-to-one with its key
	// (TestItemKeyOneToOne), so interning builds no string per lookup.
	ids   map[Item]int
	keys  []string
	types []ItemType
	freq  []int
}

// NewDictionary returns an empty dictionary for incremental observation
// (see Observe).
func NewDictionary() *Dictionary {
	return &Dictionary{ids: make(map[Item]int)}
}

// Observe interns one record's items, counts its document frequencies,
// and returns the record's encoded transaction: its item ids, sorted and
// deduplicated. Observing a record sequence in collection order yields
// the dictionary (same ids, same frequencies) and transactions a batch
// encoding of the collection would, which is what lets a streaming
// ingest stage encode each record the moment it arrives and then drop
// it.
func (d *Dictionary) Observe(r *Record) []int {
	ids := make([]int, len(r.Items))
	for i, it := range r.Items {
		ids[i] = d.intern(it)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for _, id := range ids {
		d.freq[id]++
	}
	return ids
}

func (d *Dictionary) intern(it Item) int {
	if id, ok := d.ids[it]; ok {
		return id
	}
	// The map key's value aliases the tail of the key string, so the
	// dictionary holds each distinct value once and retains no record's
	// strings.
	k := it.Key()
	id := len(d.keys)
	d.ids[Item{Type: it.Type, Value: k[len(k)-len(it.Value):]}] = id
	d.keys = append(d.keys, k)
	d.types = append(d.types, it.Type)
	d.freq = append(d.freq, 0)
	return id
}

// Len returns the number of distinct items.
func (d *Dictionary) Len() int { return len(d.keys) }

// TypeOf returns the item type for an id.
func (d *Dictionary) TypeOf(id int) ItemType { return d.types[id] }

// MostFrequent returns the item ids whose document frequency places them in
// the top `fraction` of all items (e.g. 0.0003 for the paper's .03% pruning
// rule), ties included. fraction <= 0 returns nil.
func (d *Dictionary) MostFrequent(fraction float64) []int {
	if fraction <= 0 || len(d.keys) == 0 {
		return nil
	}
	n := int(float64(len(d.keys)) * fraction)
	if n == 0 {
		n = 1
	}
	ids := make([]int, len(d.keys))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return d.freq[ids[a]] > d.freq[ids[b]] })
	if n > len(ids) {
		n = len(ids)
	}
	cut := d.freq[ids[n-1]]
	for n < len(ids) && d.freq[ids[n]] == cut {
		n++
	}
	out := make([]int, n)
	copy(out, ids[:n])
	sort.Ints(out)
	return out
}
