package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mfiblocks"
	"repro/internal/names"
	"repro/internal/record"
)

// queryFixture resolves a generated ItalySet of the given size without a
// model (block scores tie often, which the tie-run certainties need). The
// records are shuffled, so Collection order is not BookID order, and a few
// are doctored: a long-s surname next to its plain spelling, one report
// carrying a value twice and a surname in two cases.
func queryFixture(t testing.TB, seed int64, persons int, preprocess bool) *Resolution {
	t.Helper()
	cfg := dataset.ItalyConfig()
	cfg.Seed, cfg.Persons = seed, persons
	gen, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Records
	recs[0].Add(record.LastName, "Roſsi")
	recs[1].Add(record.LastName, "ROSSI")
	recs[2].Add(record.LastName, "rossi")
	recs[2].Add(record.LastName, "rossi")
	recs[2].Add(record.FirstName, "ISACCO")
	recs[3].Add(record.FirstName, "Itzik")
	rand.New(rand.NewSource(seed)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	coll, err := record.NewCollection(recs)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Blocking: mfiblocks.NewConfig(), Geo: gen.Gaz, Preprocess: preprocess, Gazetteer: gen.Gaz}
	res, err := Run(opts, coll)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) < 50 {
		t.Fatalf("only %d matches; the fixture is too small to sweep", len(res.Matches))
	}
	return res
}

// certainty is one row's slider position, named by its class.
type certainty struct {
	name  string
	theta float64
}

// boundaryCertainties returns one certainty per class of cut. The forest
// is built one union at a time, so a certainty can only go wrong in which
// unions it admits, and that is decided at the score boundaries: above
// the best score (none), at the best score, at the score of a tie run
// (the run is admitted whole) and just above it (none of the run) for the
// first tie run and the first past the middle of the ranking, halfway
// between two adjacent distinct scores past the middle, at the worst
// score and below it (every union), and at NaN and +Inf (none) and -Inf
// (every union).
func boundaryCertainties(t testing.TB, res *Resolution) []certainty {
	t.Helper()
	ms := res.Matches
	best, worst := ms[0].Score, ms[len(ms)-1].Score
	firstTie, middleTie, midpoint := -1, -1, -1
	for i := 1; i < len(ms); i++ {
		tie := ms[i].Score == ms[i-1].Score
		switch {
		case tie && firstTie < 0:
			firstTie = i
		case tie && middleTie < 0 && i > len(ms)/2:
			middleTie = i
		case !tie && midpoint < 0 && i > len(ms)/2:
			midpoint = i
		}
	}
	if firstTie < 0 || middleTie < 0 || midpoint < 0 {
		t.Fatalf("the %d matches lack a tie run or a distinct score past the middle", len(ms))
	}
	hi, lo := ms[midpoint-1].Score, ms[midpoint].Score
	if mid := (hi + lo) / 2; !(lo < mid && mid < hi) {
		t.Fatalf("no certainty between adjacent scores %v and %v", lo, hi)
	}
	return []certainty{
		{"above-best", math.Nextafter(best, math.Inf(1))},
		{"best", best},
		{"first-tie", ms[firstTie].Score},
		{"above-first-tie", math.Nextafter(ms[firstTie].Score, math.Inf(1))},
		{"middle-tie", ms[middleTie].Score},
		{"above-middle-tie", math.Nextafter(ms[middleTie].Score, math.Inf(1))},
		{"midpoint", (hi + lo) / 2},
		{"worst", worst},
		{"below-worst", math.Nextafter(worst, math.Inf(-1))},
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	}
}

// sweepQueries covers each shape of name query at one certainty.
func sweepQueries(res *Resolution, theta float64) []Query {
	last, _ := res.Collection.Records[7].First(record.LastName)
	first, _ := res.Collection.Records[7].First(record.FirstName)
	qs := []Query{
		{Last: last},
		{First: first},
		{First: first, Last: last},
		{First: "Isacco"}, // a registered variant of Yitzhak ...
		{First: "Yitzhak"},
		{First: "yITZHAK", Last: "LEVI"}, // ... and mixed case on both
		{Last: "roſsi"},                  // folds to Rossi under EqualFold, not under ToLower
		{Last: "Rossi"},
		{First: "iſacco", Last: "ROSSI"},
		{},
		{First: "Nobody"},
		{First: first, Last: "Nobody"},
	}
	for i := range qs {
		qs[i].Certainty = theta
	}
	return qs
}

// specEntities is the query layer by definition: at certainty θ the
// entities are the connected components of the matches AtCertainty
// accepts, with a singleton for every unmatched record, ordered by their
// smallest BookID. Each carries its merged view: every value of its
// reports, counted once per report, most reports first, then by value.
func specEntities(res *Resolution, theta float64) []*Entity {
	sets := bookSets{} // rooted at their smallest BookIDs
	for _, m := range res.AtCertainty(theta) {
		a, b := sets.find(m.Pair.A), sets.find(m.Pair.B)
		sets[max(a, b)] = min(a, b)
	}
	members := make(map[int64][]int64)
	var heads []int64
	for _, rec := range res.Collection.Records {
		h := sets.find(rec.BookID)
		if len(members[h]) == 0 {
			heads = append(heads, h)
		}
		members[h] = append(members[h], rec.BookID)
	}
	slices.Sort(heads)
	out := make([]*Entity, len(heads))
	for i, h := range heads {
		ids := members[h]
		slices.Sort(ids)
		out[i] = specView(res.Collection, ids)
	}
	return out
}

// bookSets is a union-find by BookID: a BookID's parent, absent for a
// root.
type bookSets map[int64]int64

func (s bookSets) find(x int64) int64 {
	p, ok := s[x]
	if !ok || p == x {
		return x
	}
	s[x] = s.find(p)
	return s[x]
}

// specView merges the reports of one entity.
func specView(coll *record.Collection, ids []int64) *Entity {
	reports := make(map[record.Item]int)
	for _, id := range ids {
		seen := make(map[record.Item]bool)
		for _, it := range coll.ByID(id).Items {
			if !seen[it] {
				seen[it] = true
				reports[it]++
			}
		}
	}
	e := &Entity{Reports: ids, Values: make(map[record.ItemType][]ValueSupport)}
	for it, n := range reports {
		e.Values[it.Type] = append(e.Values[it.Type], ValueSupport{Value: it.Value, Reports: n})
	}
	for _, vs := range e.Values {
		slices.SortFunc(vs, func(a, b ValueSupport) int {
			return cmp.Or(cmp.Compare(b.Reports, a.Reports), strings.Compare(a.Value, b.Value))
		})
	}
	return e
}

// specSearch is Search by definition, over specEntities' answer: the
// entities carrying a first name of the query's name class and a last
// name equal to the query's under case folding, an empty name matching
// every entity, in order; the first Limit of them when Limit is set.
func specSearch(entities []*Entity, q Query) []*Entity {
	var out []*Entity
	for _, e := range entities {
		if carries(e, record.FirstName, q.First, sameClass) && carries(e, record.LastName, q.Last, strings.EqualFold) {
			out = append(out, e)
		}
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// sameClass reports whether two first names are in one name class: b's
// fold key among a's class keys (the names package holds ClassKeys to a
// walk over every class).
func sameClass(a, b string) bool { return slices.Contains(names.ClassKeys(a), names.FoldKey(b)) }

// carries reports whether the entity has a value of type t that is the
// same name as name; an empty name is carried by every entity.
func carries(e *Entity, t record.ItemType, name string, same func(a, b string) bool) bool {
	return name == "" || slices.ContainsFunc(e.Values[t], func(v ValueSupport) bool { return same(v.Value, name) })
}

// TestQueryLayerMatchesSpec holds Clusters, EntityCounts, EntityOf and
// Search to specEntities and specSearch, one row per (fixture, class of
// certainty): three shuffled, doctored 200-person resolutions, the second
// without preprocessing. A row checks Clusters by reflect.DeepEqual, the
// counts, EntityOf for every 41st record and two absent BookIDs, and each
// query shape with and without a limit of 3.
func TestQueryLayerMatchesSpec(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res := queryFixture(t, seed, 200, seed != 2)
		books := []int64{-1, 42}
		for i := 0; i < res.Collection.Len(); i += 41 {
			books = append(books, res.Collection.Records[i].BookID)
		}
		for _, c := range boundaryCertainties(t, res) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, c.name), func(t *testing.T) {
				checkQueryLayer(t, res, books, c.theta)
			})
		}
	}
}

// checkQueryLayer is one row of TestQueryLayerMatchesSpec.
func checkQueryLayer(t *testing.T, res *Resolution, books []int64, theta float64) {
	want := specEntities(res, theta)
	if got := res.Clusters(theta); !reflect.DeepEqual(got, want) {
		t.Fatalf("Clusters(%v) differs from the spec (%d vs %d entities)", theta, len(got), len(want))
	}
	if entities, multi := res.EntityCounts(theta); entities != len(want) || multi != multiReport(want) {
		t.Fatalf("EntityCounts(%v) = %d, %d, want %d, %d", theta, entities, multi, len(want), multiReport(want))
	}
	for _, book := range books {
		var wantE *Entity
		for _, e := range want {
			if slices.Contains(e.Reports, book) {
				wantE = e
			}
		}
		if got, ok := res.EntityOf(book, theta); ok != (wantE != nil) || !reflect.DeepEqual(got, wantE) {
			t.Fatalf("EntityOf(%d, %v) differs from the spec", book, theta)
		}
	}
	for _, q := range sweepQueries(res, theta) {
		for _, limit := range []int{0, 3} {
			q.Limit = limit
			if got, hits := res.Search(q), specSearch(want, q); !reflect.DeepEqual(got, hits) {
				t.Fatalf("Search(%+v) = %d entities, the spec %d, or their content differs", q, len(got), len(hits))
			}
		}
	}
}

// TestSearchFindsDoctoredNames checks the sweep's special queries are not
// vacuous: the fold and nickname probes do hit the doctored records.
func TestSearchFindsDoctoredNames(t *testing.T) {
	res := queryFixture(t, 1, 300, false)
	for _, q := range []Query{{Last: "roſsi"}, {First: "iſacco", Last: "ROSSI"}, {First: "Yitzhak"}} {
		q.Certainty = math.Inf(1) // singletons: one hit per matching report
		if hits := res.Search(q); len(hits) == 0 {
			t.Errorf("Search(%+v) found nothing", q)
		}
	}
	if hits := res.Search(Query{Last: "Rossi", Certainty: math.Inf(1)}); len(hits) != 3 {
		t.Errorf("Rossi/ROSSI/Roſsi are on 3 reports, Search found %d", len(hits))
	}
}

// TestQueryLayerConcurrent has 8 goroutines move the slider over 200
// certainties, 150 of them with distinct prefixes, while 4 more call
// Search, EntityOf and ScorePair on three hot ones; every answer must
// equal the single-threaded one. Run it under -race.
func TestQueryLayerConcurrent(t *testing.T) {
	res := queryFixture(t, 1, 300, true)
	thetas := distinctCertainties(t, res, 150)
	for i := 0; i < 50; i++ { // and 50 that fall between two of them
		thetas = append(thetas, (thetas[3*i]+thetas[3*i+1])/2)
	}
	hot := []float64{thetas[10], thetas[40], thetas[70]}
	book := res.Collection.Records[5].BookID
	pair := res.Matches[len(res.Matches)/2].Pair
	query := sweepQueries(res, 0)[0]

	type answer struct {
		entities, multi int
		of              *Entity
		hits            []*Entity
		pair            RankedMatch
	}
	move := func(theta float64) (a answer) {
		a.entities, a.multi = res.EntityCounts(theta)
		a.of, _ = res.EntityOf(book, theta)
		return a
	}
	read := func(theta float64) (a answer) {
		q := query
		q.Certainty = theta
		a.hits = res.Search(q)
		a.of, _ = res.EntityOf(book, theta)
		a.pair, _ = res.ScorePair(pair.A, pair.B)
		return a
	}
	wantMove, wantRead := make(map[float64]answer), make(map[float64]answer)
	for _, theta := range thetas {
		wantMove[theta] = move(theta)
	}
	for _, theta := range hot {
		wantRead[theta] = read(theta)
	}

	var wg sync.WaitGroup
	run := func(g int, ask func(float64) answer, want map[float64]answer, at func(i int) float64) {
		defer wg.Done()
		for i := range thetas {
			if theta := at(i); !reflect.DeepEqual(ask(theta), want[theta]) {
				t.Errorf("goroutine %d: answer at %v differs from the single-threaded one", g, theta)
				return
			}
		}
	}
	for g := 0; g < 12; g++ {
		g := g
		wg.Add(1)
		if g < 8 {
			go run(g, move, wantMove, func(i int) float64 { return thetas[(i+25*g)%len(thetas)] })
		} else {
			go run(g, read, wantRead, func(i int) float64 { return hot[(i+g)%len(hot)] })
		}
	}
	wg.Wait()
}

// distinctCertainties returns up to n match scores no two of which accept
// the same number of matches, spread over the ranking.
func distinctCertainties(t testing.TB, res *Resolution, n int) []float64 {
	t.Helper()
	var all []float64
	for i, m := range res.Matches {
		if i == 0 || m.Score != res.Matches[i-1].Score {
			all = append(all, m.Score)
		}
	}
	if len(all) < n {
		t.Fatalf("the matches have %d distinct scores, need %d", len(all), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = all[i*(len(all)-1)/(n-1)]
	}
	return out
}

// forestFixture is a resolution made without blocking, whose forest is
// as large as a run's over as many reports: persons of one to four
// reports, each pair of one person's reports matched, and one person in
// eight also matched to the next, at seeded scores on a 1/1000 grid so
// that scores tie.
func forestFixture(t testing.TB, persons int) *Resolution {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(persons)))
	var recs []*record.Record
	var matches []RankedMatch
	match := func(a, b int) {
		s := float64(rng.Intn(1000)) / 1000
		matches = append(matches, RankedMatch{Pair: record.MakePair(recs[a].BookID, recs[b].BookID), BlockScore: s, Score: s})
	}
	for p := 0; p < persons; p++ {
		first := len(recs)
		for k := 1 + rng.Intn(4); k > 0; k-- {
			rec := &record.Record{BookID: int64(1_000_000 + len(recs))}
			rec.Add(record.FirstName, fmt.Sprint("F", p))
			rec.Add(record.LastName, fmt.Sprint("L", p%97))
			recs = append(recs, rec)
		}
		for a := first; a < len(recs); a++ {
			for b := a + 1; b < len(recs); b++ {
				match(a, b)
			}
		}
		if p > 0 && rng.Intn(8) == 0 {
			match(first-1, first)
		}
	}
	slices.SortFunc(matches, func(a, b RankedMatch) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Pair.A, b.Pair.A), cmp.Compare(a.Pair.B, b.Pair.B))
	})
	coll, err := record.NewCollection(recs)
	if err != nil {
		t.Fatal(err)
	}
	return &Resolution{Matches: matches, Collection: coll}
}

// TestEntityOfAllocsDoNotGrow bounds what a slider move followed by one
// entity lookup allocates, by a constant that holds on forests of about
// 2,500 and 25,000 reports alike: a certainty is a binary search and a
// climb, and only the returned entity gets a view.
func TestEntityOfAllocsDoNotGrow(t *testing.T) {
	const bound = 10
	for _, persons := range []int{1_000, 10_000} {
		res := forestFixture(t, persons)
		book := res.Collection.Records[5].BookID
		thetas := distinctCertainties(t, res, 70)
		res.EntityOf(book, thetas[0]) // builds the query index
		i := 1
		allocs := testing.AllocsPerRun(2*len(thetas), func() {
			res.EntityOf(book, thetas[i%len(thetas)])
			i++
		})
		if allocs > bound {
			t.Errorf("%d reports: EntityOf at a new certainty makes %.0f allocations, bound %d", res.Collection.Len(), allocs, bound)
		}
	}
}

// TestForestIsSmallAndFixed checks the merge forest keeps under 48 bytes
// per record plus 8 per union, by the capacities it actually holds, and
// that a sweep of 150 scores and every boundary class leaves every array
// as it was: there is no per-certainty state.
func TestForestIsSmallAndFixed(t *testing.T) {
	res := queryFixture(t, 1, 300, true)
	ix := res.queryIndex()
	arrays := []*[]int32{&ix.byBook, &ix.parent, &ix.least, &ix.leaves, &ix.lo, &ix.hi, &ix.at, &ix.multi}
	var same, was [][]int32
	held := 0
	for _, a := range arrays {
		same, was = append(same, *a), append(was, slices.Clone(*a))
		held += 4 * cap(*a)
	}
	thetas := distinctCertainties(t, res, 150)
	n, unions := res.Collection.Len(), len(ix.at)
	if held >= 48*n+8*unions {
		t.Errorf("the forest retains %d bytes for %d records and %d unions", held, n, unions)
	}
	for _, c := range boundaryCertainties(t, res) {
		thetas = append(thetas, c.theta)
	}
	for _, theta := range thetas {
		res.EntityCounts(theta)
		res.EntityOf(res.Collection.Records[5].BookID, theta)
		res.Search(Query{Last: "Rossi", Certainty: theta})
	}
	for i, a := range arrays {
		if len(*a) != len(same[i]) || cap(*a) != cap(same[i]) || &(*a)[0] != &same[i][0] || !slices.Equal(*a, was[i]) {
			t.Errorf("array %d changed during the sweep", i)
		}
	}
}

// TestEntityCountsAtEveryCut holds EntityCounts, at every distinct score
// and at every midpoint between two adjacent ones — every cut the forest
// has, so every entry of its union and multi-report counts — to one
// union-find pass over the matches that counts the components by size.
func TestEntityCountsAtEveryCut(t *testing.T) {
	res := queryFixture(t, 1, 200, true)
	sets := bookSets{}
	size := make(map[int64]int) // the components of two or more reports, by root
	ms := res.Matches
	for i, m := range ms {
		if a, b := sets.find(m.Pair.A), sets.find(m.Pair.B); a != b {
			sets[b], size[a] = a, max(size[a], 1)+max(size[b], 1)
			delete(size, b)
		}
		if i+1 < len(ms) && ms[i+1].Score == m.Score {
			continue // the run of this score is admitted whole
		}
		thetas := []float64{m.Score}
		if i+1 < len(ms) {
			if mid := (m.Score + ms[i+1].Score) / 2; ms[i+1].Score < mid && mid < m.Score {
				thetas = append(thetas, mid)
			}
		}
		entities := res.Collection.Len() + len(size)
		for _, n := range size {
			entities -= n
		}
		for _, theta := range thetas {
			if gotE, gotM := res.EntityCounts(theta); gotE != entities || gotM != len(size) {
				t.Fatalf("EntityCounts(%v) = %d, %d, want %d, %d", theta, gotE, gotM, entities, len(size))
			}
		}
	}
}

// multiReport counts the entities of two or more reports.
func multiReport(entities []*Entity) (n int) {
	for _, e := range entities {
		if len(e.Reports) > 1 {
			n++
		}
	}
	return n
}
