package features

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/gazetteer"
	"repro/internal/record"
	"repro/internal/similarity"
)

// Profile is a per-record snapshot of everything the pair features read,
// derived once from the record's raw strings: its name values as interned
// IDs, parsed birth-date components, first values of places and
// demographic attributes, and the coordinates the extractor's gazetteer
// resolves for the place-type cities. ProfileCache.Build makes them.
//
// A profile holds only what its extractor's features read (see
// NewExtractorFor): the source, name attributes, first values, date
// components and place-type cities of the features it profiles, and
// nothing else.
// Training (ExtractProfiled over a full extractor's profiles) and scoring
// (PairEval over a restricted extractor's) compute each feature with the
// same code, so a feature a model tests has the same value in both.
//
// A run keeps one profile per record for as long as its Resolution lives,
// so the layout is compact: the variable-length parts are sub-slices of
// arenas shared by a whole Build, the sparse attributes store only the
// values present, located through a mask, and a name value is a 4-byte ID
// whose lowered string and q-grams the extractor's value table holds once
// for every profile.
type Profile struct {
	source string

	// names holds the interned IDs of the record's distinct lowered name
	// values, grouped by name attribute in nameAttrs order and sorted
	// within a group: attribute i's group is names[ends[i]:ends[i+1]].
	names []uint32
	ends  [len(nameAttrs) + 1]uint32

	// firsts holds the first value of each item type in the extractor's
	// firstTypes that the record carries, in item-type order; bit t of has
	// is set when item type t is among them.
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

// nameValue is what the pair features read of one distinct lowered name
// value: the lowered string (for Jaro-Winkler) and its padded 2-gram set
// as sorted interned IDs (for XNdist). The extractor's value table holds
// one per interned name ID; profiles hold only the ID, which is the
// value's identity in sameXName. IDs come from the extractor's interner,
// so pair-time set operations are integer merges with no map probes or
// string hashing. Max-over-values and set comparison ignore order and
// repeats, which is what lets a profile keep the IDs sorted and distinct.
// grams is immutable, capped and never empty (a padded value has at least
// one gram), so a nil grams marks a table slot that holds no name value.
type nameValue struct {
	lower string
	grams []uint32
}

// group returns the name IDs of attribute i.
func (p *Profile) group(i int) []uint32 { return p.names[p.ends[i]:p.ends[i+1]] }

var dateTypes = [3]record.ItemType{record.BirthDay, record.BirthMonth, record.BirthYear}

// nameAttrOf maps a name item type to its index in nameAttrs.
var nameAttrOf = func() (m [record.NumItemTypes]uint8) {
	for i, na := range nameAttrs {
		m[na.t] = uint8(i)
	}
	return m
}()

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

// profileBuilder builds one Build's profiles, drawing their
// variable-length parts from its arenas. values and cities are its value
// maps: a corpus repeats a few thousand name values and a few hundred
// cities across all its records, so each is lowered, interned or resolved
// once per build, not once per record. The key is the raw string (a
// repeat costs one probe, no lowering). A name value new to the
// extractor is grammed once and goes straight into its value table.
type profileBuilder struct {
	ex     *Extractor
	ids    arena[uint32]
	firsts arena[string]
	coords arena[[2]float64]
	values map[string]uint32
	cities map[string]cityCoord
	// keys is scratch for one record's name items: attribute index in
	// the high half, name ID in the low.
	keys []uint64
}

// cityCoord is a city's gazetteer resolution, !ok for an unknown city.
type cityCoord struct {
	at [2]float64
	ok bool
}

// newProfileBuilder returns a builder whose arena blocks suit a build of
// the given number of records. The per-record factors are what a
// generated RandomSet record needs on average: 3.4 name IDs under a full
// extractor (gram IDs are per distinct value), 2 resolved cities, and
// first values for about half the item types the extractor keeps (9.4 of
// a full extractor's 18), rounded up. They only size blocks: any record
// fits.
func (e *Extractor) newProfileBuilder(records int) *profileBuilder {
	block := func(perRecord int) int { return min(records*perRecord, arenaBlock) }
	b := &profileBuilder{
		ex:     e,
		ids:    arena[uint32]{block: block(4)},
		coords: arena[[2]float64]{block: block(3)},
		values: make(map[string]uint32),
		cities: make(map[string]cityCoord),
	}
	b.firsts.block = block(1 + bits.OnesCount32(e.firstTypes)/2)
	return b
}

// build fills p, a zero Profile, with r's profile, keeping only the name
// attributes, first values, date components and place-type cities the
// extractor's features read.
func (b *profileBuilder) build(p *Profile, r *record.Record) {
	e := b.ex
	if e.profiled&(1<<idSameSource) != 0 {
		p.source = r.Source
	}

	// One scan of the bag finds the first item of every type and the ID
	// of every name value a feature reads.
	var at [record.NumItemTypes]int32
	var seen uint32
	keys := b.keys[:0]
	for k, it := range r.Items {
		if int(it.Type) >= record.NumItemTypes {
			continue
		}
		bit := uint32(1) << it.Type
		if e.nameTypes&bit != 0 {
			keys = append(keys, uint64(nameAttrOf[it.Type])<<32|uint64(b.value(it.Value)))
		}
		if seen&bit == 0 {
			seen |= bit
			at[it.Type] = int32(k)
		}
	}
	first := func(t record.ItemType) string { return r.Items[at[t]].Value }

	if len(keys) > 0 {
		slices.Sort(keys)
		keys = slices.Compact(keys)
		p.names = b.ids.alloc(len(keys))
		for k, key := range keys {
			p.names[k] = uint32(key)
			p.ends[key>>32+1]++
		}
		for i := 1; i < len(p.ends); i++ {
			p.ends[i] += p.ends[i-1]
		}
	}
	b.keys = keys

	// An empty part stays nil: the collector has no pointer to follow.
	if p.has = seen & e.firstTypes; p.has != 0 {
		p.firsts = b.firsts.alloc(bits.OnesCount32(p.has))
		for k, m := 0, p.has; m != 0; k, m = k+1, m&(m-1) {
			p.firsts[k] = first(record.ItemType(bits.TrailingZeros32(m)))
		}
	}

	if e.Geo != nil {
		var found [record.NumPlaceTypes][2]float64
		n := 0
		for pt := 0; pt < record.NumPlaceTypes; pt++ {
			city := record.PlaceItem(record.PlaceType(pt), record.City)
			if seen&(1<<city) == 0 || e.profiled&(1<<(idGeoDist+pt)) == 0 {
				continue
			}
			if c := b.city(first(city)); c.ok {
				p.resolved |= 1 << pt
				found[n] = c.at
				n++
			}
		}
		if n > 0 {
			p.coords = b.coords.alloc(n)
			copy(p.coords, found[:n])
		}
	}

	allDates := true
	for i, t := range dateTypes {
		if seen&(1<<t) == 0 {
			allDates = false
			continue
		}
		if e.profiled&(1<<(idDateDist+i)) != 0 {
			if n, err := strconv.Atoi(first(t)); err == nil {
				p.parsed |= 1 << i
				p.date[i] = n
			}
		}
	}
	if allDates && e.profiled&(1<<idSameDOB) != 0 {
		p.hasDOB = true
		p.dob = e.interner.Intern(joinDOB(first(record.BirthDay), first(record.BirthMonth), first(record.BirthYear)))
	}
}

// value returns the interned ID of a raw name value's lowered form,
// deriving the value's table entry when the extractor's table lacks it.
func (b *profileBuilder) value(raw string) uint32 {
	if id, ok := b.values[raw]; ok {
		return id
	}
	e := b.ex
	id, lower := e.interner.Canonical(strings.ToLower(raw))
	b.values[raw] = id
	if int(id) >= len(e.values) || e.values[id].grams == nil {
		g := similarity.QGramIDs(e.interner, lower, 2)
		v := nameValue{lower: lower, grams: b.ids.alloc(len(g))}
		copy(v.grams, g)
		if n := int(id) + 1; n > len(e.values) {
			e.values = append(e.values, make([]nameValue, n-len(e.values))...)
		}
		e.values[id] = v
	}
	return id
}

// city returns a raw city's gazetteer resolution, from the builder's map
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
// records. memo, when not nil, answers the name kernels for the value
// pairs it has seen. It panics on a feature outside the extractor's
// profiled set, whose inputs the profiles lack: answering "missing" would
// score the pair silently wrong, and the caller has paired a model with
// an extractor built for another.
func (e *Extractor) feature(id int, a, b *Profile, memo *kernelMemo) Value {
	if e.profiled&(1<<id) == 0 {
		panic(fmt.Sprintf("features: %s (feature %d) is not among the features this extractor profiles", e.defs[id].Name, id))
	}
	switch {
	case id < idDateDist:
		// The three features of one name attribute (the name groups
		// start at id 0, so id mod their length is the attribute):
		// sameXName over the interned value IDs, XNdist as the max q-gram
		// Jaccard over the value table's gram sets, XNjw as the max
		// Jaro-Winkler over its lowered values. Both kernels score a value
		// against itself exactly 1 and nothing above 1, so equal IDs need
		// no kernel call and the max stops at 1.
		na, nb := a.group(id%len(nameAttrs)), b.group(id%len(nameAttrs))
		if len(na) == 0 || len(nb) == 0 {
			return Value{}
		}
		if id < idNameDist {
			return Value{Present: true, Cat: compareNameIDs(na, nb)}
		}
		k := kernelJaccard
		if id >= idNameJW {
			k = kernelJW
		}
		vals := e.values
		best := 0.0
	values:
		for _, x := range na {
			for _, y := range nb {
				s := 1.0
				if x != y {
					s = memo.sim(k, vals, x, y)
				}
				if s > best {
					best = s
					if best == 1 {
						break values
					}
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
		if ca == cb {
			// Haversine of a point to itself is exactly +0.
			return Value{Present: true}
		}
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
// profiles of a full extractor. It is the full-vector form — every
// feature, whether or not anything reads it — that training, the pair
// breakdowns and the staged benchmark want; the scoring stage pulls
// features through a PairEval instead. It panics on a restricted
// extractor, whose profiles lack some feature's inputs.
func (e *Extractor) ExtractProfiled(a, b *Profile) Vector {
	v := make(Vector, NumFeatures)
	for id := range v {
		v[id] = e.feature(id, a, b, nil)
	}
	return v
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
	// kernels, once MemoizeKernels has set it, remembers name-kernel
	// results across the pairs the evaluator serves.
	kernels *kernelMemo
}

// MemoizeKernels gives the evaluator a name-kernel memo of its own
// (512 KiB), so the XNdist and XNjw features of later pairs compare each
// distinct pair of name values once: what a worker scoring many pairs
// wants, and what one-off scoring does not. Values are unchanged, bit for
// bit.
func (p *PairEval) MemoizeKernels() {
	p.kernels = newKernelMemo(kernelMemoBits)
}

// Reset points the evaluator at a new pair of profiles built by ex. Only
// the mask is cleared: a stale slot is unreachable until At refills it.
// The kernel memo is kept unless ex is another extractor.
func (p *PairEval) Reset(ex *Extractor, a, b *Profile) {
	p.ex, p.a, p.b, p.have = ex, a, b, 0
	if p.kernels != nil {
		p.kernels.bind(ex)
	}
}

// At returns feature id of the current pair, equal to ExtractProfiled's at
// id. It panics when id is not among the features the extractor profiles.
func (p *PairEval) At(id int) Value {
	if bit := uint64(1) << id; p.have&bit == 0 {
		p.vals[id] = p.ex.feature(id, p.a, p.b, p.kernels)
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
//
// Build writes its extractor's interner and value table, so the Builds
// over one extractor run one at a time and never alongside extraction:
// every program builds a new extractor's profiles once, before any pair
// is scored.
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

// Build derives the profiles of the whole collection on the calling
// goroutine and returns them aligned with coll.Records, which the cache
// then holds. The profiles live in one slab and their variable-length
// parts in the builder's arenas: a build costs a handful of heap objects,
// not a dozen per record. The name values new to the extractor join its
// value table, and a later Build over the same extractor reuses their IDs
// and entries. workers is ignored; it remains only because
// benchmark/staged.go passes it (ROADMAP 1(a)).
func (c *ProfileCache) Build(coll *record.Collection, workers int) []*Profile {
	n := coll.Len()
	slab := make([]Profile, n)
	profs := make([]*Profile, n)
	b := c.ex.newProfileBuilder(n)
	for i, r := range coll.Records {
		b.build(&slab[i], r)
		profs[i] = &slab[i]
	}
	c.profs = profs
	return profs
}
