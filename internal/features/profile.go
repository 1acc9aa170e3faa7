package features

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/gazetteer"
	"repro/internal/record"
	"repro/internal/similarity"
)

// Profile is a per-record snapshot of everything the pair features read,
// derived once from the record's raw strings: lowered name values and
// their q-gram sets, parsed birth-date components, first-values of places
// and demographic attributes, and the coordinates the extractor's
// gazetteer resolves for the place-type cities.
// ProfileCache.Build makes them.
//
// A profile holds only what its extractor's features read (see
// NewExtractorFor). Training (ExtractProfiled over a full extractor's
// profiles) and scoring (PairEval over a restricted extractor's) compute
// each feature with the same code, so a feature a model tests has the
// same value in both.
//
// A run keeps one profile per record for as long as its Resolution lives,
// so the layout is compact: the variable-length parts are sub-slices of
// arenas shared by a whole Build, and the sparse attributes store only the
// values present, located through a mask.
type Profile struct {
	source string

	// names holds the record's distinct lowered name values, grouped by
	// name attribute in nameAttrs order and sorted by interned ID within
	// a group: attribute i's group is names[ends[i]:ends[i+1]].
	names []nameValue
	ends  [len(nameAttrs) + 1]uint32

	// firsts holds the first value of each firstTypes attribute the
	// record carries, in item-type order; bit t of has is set when item
	// type t is among them.
	firsts []string

	// coords holds the coordinates of the place-type cities the gazetteer
	// resolved at build time, in place-type order; bit pt of resolved is
	// set when place type pt's city is among them.
	coords [][2]float64

	// date holds the first BirthDay/BirthMonth/BirthYear values that
	// parsed as integers; bit i of parsed is set when component i did.
	date [3]int

	// The masks and flags sit together so they pack into twelve bytes.
	has uint32
	// dob is the interned fullDOB concatenation, present (hasDOB) only
	// with all three components.
	dob      uint32
	resolved uint8
	parsed   uint8
	hasDOB   bool
}

// nameValue is one distinct value of a name attribute: the lowered string
// (for Jaro-Winkler), its interned ID (the value's identity in
// sameXName), and its padded 2-gram set as sorted interned IDs (for
// XNdist). IDs come from the owning extractor's interner, so pair-time
// set operations are integer merges with no map probes or string hashing.
// Max-over-values and set comparison ignore order and repeats, which is
// what lets a profile keep the values sorted and distinct. grams is
// immutable and capped: profiles carrying the same raw value share it.
type nameValue struct {
	lower string
	grams []uint32
	id    uint32
}

// group returns the values of name attribute i.
func (p *Profile) group(i int) []nameValue { return p.names[p.ends[i]:p.ends[i+1]] }

// firstTypes are the item types the pair features compare by first value
// alone: the sixteen place parts, gender and profession.
const (
	placeTypes = (1<<(record.NumPlaceTypes*record.NumPlaceParts) - 1) << record.BirthCity
	firstTypes = placeTypes | 1<<record.Gender | 1<<record.Profession
)

var dateTypes = [3]record.ItemType{record.BirthDay, record.BirthMonth, record.BirthYear}

// first returns the first value of item type t, which must be in p.has.
func (p *Profile) first(t record.ItemType) string {
	return p.firsts[bits.OnesCount32(p.has&(1<<t-1))]
}

// coord returns the coordinates of place type pt's city, which must be in
// p.resolved.
func (p *Profile) coord(pt int) [2]float64 {
	return p.coords[bits.OnesCount8(p.resolved&(1<<pt-1))]
}

// arena carves slices out of blocks sized for many records, so a record's
// variable-length data costs no heap object of its own. A returned slice
// is capped at its length: appending to it can never reach a neighbour.
// The zero arena allocates every request exactly.
type arena[T any] struct {
	free  []T
	block int
}

func (a *arena[T]) alloc(n int) []T {
	if n > len(a.free) {
		a.free = make([]T, max(n, a.block))
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// arenaBlock bounds an arena block (in elements), and with it the unused
// tail a finished build leaves behind.
const arenaBlock = 1 << 11

// profileBuilder builds profiles on one goroutine, drawing their
// variable-length parts from its arenas. values and cities are its value
// table: a corpus repeats a few thousand name values and a few hundred
// cities across all its records, so each is lowered, interned, grammed or
// resolved once per builder, not once per record. The key is the raw
// string (a repeat costs one probe, no lowering) and the maps are the
// builder's own (no lock).
type profileBuilder struct {
	ex     *Extractor
	names  arena[nameValue]
	ids    arena[uint32]
	firsts arena[string]
	coords arena[[2]float64]
	values map[string]nameValue
	cities map[string]cityCoord
}

// cityCoord is a city's gazetteer resolution, !ok for an unknown city.
type cityCoord struct {
	at [2]float64
	ok bool
}

// newProfileBuilder returns a builder whose arena blocks suit a build of
// the given number of records. The per-record factors are what a
// generated RandomSet record needs on average (3.4 name values, 9.4 first
// values, 2 resolved cities; gram IDs are per distinct value), rounded
// up; they only size blocks, any record fits.
func (e *Extractor) newProfileBuilder(records int) *profileBuilder {
	block := func(perRecord int) int { return min(records*perRecord, arenaBlock) }
	return &profileBuilder{
		ex:     e,
		names:  arena[nameValue]{block: block(4)},
		ids:    arena[uint32]{block: block(8)},
		firsts: arena[string]{block: block(10)},
		coords: arena[[2]float64]{block: block(3)},
		values: make(map[string]nameValue),
		cities: make(map[string]cityCoord),
	}
}

// build fills p with r's profile, skipping the name attributes, the full
// birth date and the place-type cities no feature of the extractor reads.
func (b *profileBuilder) build(p *Profile, r *record.Record) {
	e := b.ex
	*p = Profile{source: r.Source}

	// One scan of the bag finds the first value of every item type and
	// bounds the number of name values kept.
	var first [record.NumItemTypes]string
	var seen uint32
	nameItems := 0
	for _, it := range r.Items {
		if int(it.Type) >= record.NumItemTypes {
			continue
		}
		if e.nameTypes&(1<<it.Type) != 0 {
			nameItems++
		}
		if bit := uint32(1) << it.Type; seen&bit == 0 {
			seen |= bit
			first[it.Type] = it.Value
		}
	}

	vals := b.names.alloc(nameItems)[:0]
	for i, na := range nameAttrs {
		group := len(vals)
		// An attribute no feature reads keeps an empty group.
		for _, it := range r.Items {
			if it.Type != na.t || e.nameTypes&(1<<na.t) == 0 {
				continue
			}
			v := b.value(it.Value)
			k, repeat := slices.BinarySearchFunc(vals[group:], v.id, func(v nameValue, id uint32) int {
				return cmp.Compare(v.id, id)
			})
			if !repeat {
				vals = slices.Insert(vals, group+k, v)
			}
		}
		p.ends[i+1] = uint32(len(vals))
	}
	p.names = vals

	p.has = seen & firstTypes
	p.firsts = b.firsts.alloc(bits.OnesCount32(p.has))
	for k, m := 0, p.has; m != 0; k, m = k+1, m&(m-1) {
		p.firsts[k] = first[bits.TrailingZeros32(m)]
	}

	if e.Geo != nil {
		var found [record.NumPlaceTypes][2]float64
		n := 0
		for pt := 0; pt < record.NumPlaceTypes; pt++ {
			city := record.PlaceItem(record.PlaceType(pt), record.City)
			if seen&(1<<city) == 0 || e.profiled&(1<<(idGeoDist+pt)) == 0 {
				continue
			}
			if c := b.city(first[city]); c.ok {
				p.resolved |= 1 << pt
				found[n] = c.at
				n++
			}
		}
		p.coords = b.coords.alloc(n)
		copy(p.coords, found[:n])
	}

	allDates := true
	for i, t := range dateTypes {
		if seen&(1<<t) == 0 {
			allDates = false
		} else if n, err := strconv.Atoi(first[t]); err == nil {
			p.parsed |= 1 << i
			p.date[i] = n
		}
	}
	if allDates && e.profiled&(1<<idSameDOB) != 0 {
		p.hasDOB = true
		p.dob = e.interner.Intern(joinDOB(first[record.BirthDay], first[record.BirthMonth], first[record.BirthYear]))
	}
}

// value returns what a raw name value contributes to a profile, from the
// value table when an earlier record carried it.
func (b *profileBuilder) value(raw string) nameValue {
	if v, ok := b.values[raw]; ok {
		return v
	}
	id, lower := b.ex.interner.Canonical(strings.ToLower(raw))
	g := similarity.QGramIDs(b.ex.interner, lower, 2)
	v := nameValue{lower: lower, grams: b.ids.alloc(len(g)), id: id}
	copy(v.grams, g)
	b.values[raw] = v
	return v
}

// city returns a raw city's gazetteer resolution, from the value table
// when an earlier record carried it.
func (b *profileBuilder) city(raw string) cityCoord {
	if c, ok := b.cities[raw]; ok {
		return c
	}
	var c cityCoord
	c.at[0], c.at[1], c.ok = b.ex.Geo.ResolveCoord(raw)
	b.cities[raw] = c
	return c
}

// feature computes one feature of a profile pair — the single
// implementation behind both the full-vector API and the demand-driven
// PairEval. The cases follow Defs group by group; the tests pin each
// value bit for bit to a reference that re-derives it from the raw
// records. It panics on a feature outside the extractor's profiled set,
// whose inputs the profiles lack: answering "missing" would score the
// pair silently wrong, and the caller has paired a model with an
// extractor built for another.
func (e *Extractor) feature(id int, a, b *Profile) Value {
	if e.profiled&(1<<id) == 0 {
		panic(fmt.Sprintf("features: %s (feature %d) is not among the features this extractor profiles", e.defs[id].Name, id))
	}
	switch {
	case id < idDateDist:
		// The three features of one name attribute (the name groups
		// start at id 0, so id mod their length is the attribute):
		// sameXName over the interned value IDs, XNdist as the max q-gram
		// Jaccard over the interned gram sets, XNjw as the max
		// Jaro-Winkler over the lowered values.
		na, nb := a.group(id%len(nameAttrs)), b.group(id%len(nameAttrs))
		if len(na) == 0 || len(nb) == 0 {
			return Value{}
		}
		if id < idNameDist {
			return Value{Present: true, Cat: compareNameIDs(na, nb)}
		}
		best := 0.0
		for x := range na {
			for y := range nb {
				var s float64
				if id < idNameJW {
					s = similarity.JaccardSortedIDs(na[x].grams, nb[y].grams)
				} else {
					s = similarity.JaroWinkler(na[x].lower, nb[y].lower)
				}
				if s > best {
					best = s
				}
			}
		}
		return Value{Present: true, Num: best}

	case id < idSamePlace:
		// Birth-date component distance over the parsed components.
		i := id - idDateDist
		if a.parsed&b.parsed&(1<<i) == 0 {
			return Value{}
		}
		return Value{Present: true, Num: math.Abs(float64(a.date[i] - b.date[i]))}

	case id < idGeoDist:
		// samePlaceXPartY: item types ascend in (place type, part) order.
		t := record.BirthCity + record.ItemType(id-idSamePlace)
		if a.has&b.has&(1<<t) == 0 {
			return Value{}
		}
		return Value{Present: true, Cat: boolCat(strings.EqualFold(a.first(t), b.first(t)))}

	case id < idSameSource:
		// PlaceXGeoDistance: Haversine over the coordinates both profiles
		// resolved at build time.
		pt := id - idGeoDist
		if a.resolved&b.resolved&(1<<pt) == 0 {
			return Value{}
		}
		ca, cb := a.coord(pt), b.coord(pt)
		return Value{Present: true, Num: gazetteer.Haversine(ca[0], ca[1], cb[0], cb[1])}

	case id == idSameSource:
		if a.source == "" || b.source == "" {
			return Value{}
		}
		return Value{Present: true, Cat: boolCat(a.source == b.source)}

	case id == idSameGender:
		if a.has&b.has&(1<<record.Gender) == 0 {
			return Value{}
		}
		return Value{Present: true, Cat: boolCat(a.first(record.Gender) == b.first(record.Gender))}

	case id == idSameProf:
		if a.has&b.has&(1<<record.Profession) == 0 {
			return Value{}
		}
		return Value{Present: true, Cat: boolCat(strings.EqualFold(a.first(record.Profession), b.first(record.Profession)))}

	default:
		// sameDOB: interning is injective, so equal IDs are equal dates.
		if !a.hasDOB || !b.hasDOB {
			return Value{}
		}
		return Value{Present: true, Cat: boolCat(a.dob == b.dob)}
	}
}

// ExtractProfiled computes the pair's feature vector from two cached
// profiles of a full extractor. It panics on a restricted extractor, whose
// profiles lack some feature's inputs.
func (e *Extractor) ExtractProfiled(a, b *Profile) Vector {
	v := make(Vector, NumFeatures)
	e.ExtractProfiledInto(v, a, b)
	return v
}

// ExtractProfiledInto is ExtractProfiled writing into v, which must hold
// one Value per feature definition. It is the full-vector form — every
// feature, whether or not anything reads it — that training, the pair
// breakdowns and the staged benchmark want; the scoring stage pulls
// features through a PairEval instead.
func (e *Extractor) ExtractProfiledInto(v Vector, a, b *Profile) {
	for id := range v[:NumFeatures] {
		v[id] = e.feature(id, a, b)
	}
}

// PairEval evaluates one pair's features on demand: At computes a feature
// the first time something asks for it and answers from its memo
// afterwards, so a consumer that reads three features pays for three. The
// zero value is ready for Reset; one PairEval serves any number of pairs,
// one at a time, and is small enough (about 1.6 KB) to live on a stack.
type PairEval struct {
	ex   *Extractor
	a, b *Profile
	// have has bit id set once vals[id] holds this pair's feature id.
	have uint64
	vals [NumFeatures]Value
}

// Reset points the evaluator at a new pair of profiles built by ex. Only
// the mask is cleared: a stale slot is unreachable until At refills it.
func (p *PairEval) Reset(ex *Extractor, a, b *Profile) {
	p.ex, p.a, p.b, p.have = ex, a, b, 0
}

// At returns feature id of the current pair, equal to ExtractProfiled's at
// id. It panics when id is not among the features the extractor profiles.
func (p *PairEval) At(id int) Value {
	if bit := uint64(1) << id; p.have&bit == 0 {
		p.vals[id] = p.ex.feature(id, p.a, p.b)
		p.have |= bit
	}
	return p.vals[id]
}

// Evaluated returns the set of features computed for the current pair,
// bit id set for feature id.
func (p *PairEval) Evaluated() uint64 { return p.have }

// ProfileCache holds the profiles of one collection's records, so
// repeated pair extractions — the scoring worker pool, or ad-hoc
// query-time scoring — pay the per-record derivation once. Build fills it;
// Get and Len read what the last Build left and are safe for concurrent
// use once it has returned.
type ProfileCache struct {
	ex    *Extractor
	profs []*Profile
}

// NewProfileCache returns an empty cache building profiles with ex.
func NewProfileCache(ex *Extractor) *ProfileCache { return &ProfileCache{ex: ex} }

// Extractor returns the extractor the cache builds profiles with.
func (c *ProfileCache) Extractor() *Extractor { return c.ex }

// Len returns the number of cached profiles.
func (c *ProfileCache) Len() int { return len(c.profs) }

// Get returns the profile of the record at index i of the collection the
// cache was built over.
func (c *ProfileCache) Get(i int) *Profile { return c.profs[i] }

// Build precomputes profiles for the whole collection on the given number
// of workers (clamped to at least 1). It returns the profiles aligned with
// coll.Records, which the cache then holds. The profiles live in one slab,
// their variable-length parts in per-worker arenas: a build costs a
// handful of heap objects, not a dozen per record.
func (c *ProfileCache) Build(coll *record.Collection, workers int) []*Profile {
	n := coll.Len()
	slab := make([]Profile, n)
	profs := make([]*Profile, n)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers && w*chunk < n; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			b := c.ex.newProfileBuilder(hi - lo)
			for i := lo; i < hi; i++ {
				b.build(&slab[i], coll.Records[i])
				profs[i] = &slab[i]
			}
		}(lo, hi)
	}
	wg.Wait()
	c.profs = profs
	return profs
}
