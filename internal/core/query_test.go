package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mfiblocks"
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

// sweepCertainties draws n certainties from the match scores themselves, at
// evenly spread ranks, and adds every edge the cut has: the first tie runs
// of equal scores, a value between two adjacent scores, NaN, ±Inf, and a
// certainty above the best and below the worst score.
func sweepCertainties(res *Resolution, n int) []float64 {
	ms := res.Matches
	var out []float64
	for i := 0; i < n; i++ {
		out = append(out, ms[i*(len(ms)-1)/(n-1)].Score)
	}
	ties := 0
	for i := 1; i < len(ms) && ties < 5; i++ {
		if ms[i].Score == ms[i-1].Score && (i < 2 || ms[i-2].Score != ms[i].Score) {
			out = append(out, ms[i].Score)
			ties++
		}
	}
	mid := len(ms) / 2
	return append(out, (ms[mid].Score+ms[mid+1].Score)/2,
		math.NaN(), math.Inf(1), math.Inf(-1), ms[0].Score+1, ms[len(ms)-1].Score-1)
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

// TestQueryLayerMatchesOracle holds Clusters, EntityOf and Search to the
// pre-index implementation kept in oracle_test.go.
func TestQueryLayerMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res := queryFixture(t, seed, 200, seed != 2)
		books := []int64{-1, 42}
		for i := 0; i < res.Collection.Len(); i += 41 {
			books = append(books, res.Collection.Records[i].BookID)
		}
		old := &oracle{Resolution: res}
		for _, theta := range sweepCertainties(res, 40) {
			want := old.Clusters(theta)
			if got := res.Clusters(theta); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Clusters(%v) differs from the oracle (%d vs %d entities)", seed, theta, len(got), len(want))
			}
			if entities, multi := res.EntityCounts(theta); entities != len(want) || multi != multiReport(want) {
				t.Fatalf("seed %d: EntityCounts(%v) = %d, %d, want %d, %d", seed, theta, entities, multi, len(want), multiReport(want))
			}
			for _, book := range books {
				got, ok := res.EntityOf(book, theta)
				wantE, wantOK := old.EntityOf(book, theta)
				if ok != wantOK || !reflect.DeepEqual(got, wantE) {
					t.Fatalf("seed %d: EntityOf(%d, %v) differs from the oracle", seed, book, theta)
				}
			}
			for _, q := range sweepQueries(res, theta) {
				want := old.Search(q)
				if got := res.Search(q); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Search(%+v) = %d entities, oracle %d, or their content differs", seed, q, len(got), len(want))
				}
				// A limit returns the head of the same answer.
				q.Limit = 3
				if len(want) > 3 {
					want = want[:3]
				}
				if got := res.Search(q); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Search(%+v) is not the first 3 of the unlimited answer", seed, q)
				}
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

// TestEntityOfAllocsDoNotGrow bounds what a slider move followed by one
// entity lookup allocates, by a constant that holds at 300 and at 3,000
// persons alike: a certainty is a binary search and a climb, and only the
// returned entity gets a view.
func TestEntityOfAllocsDoNotGrow(t *testing.T) {
	if testing.Short() {
		t.Skip("resolves 3,000 persons")
	}
	const bound = 10
	for _, persons := range []int{300, 3000} {
		res := queryFixture(t, 1, persons, true)
		book := res.Collection.Records[5].BookID
		thetas := distinctCertainties(t, res, 70)
		res.EntityOf(book, thetas[0]) // builds the query index
		i := 1
		allocs := testing.AllocsPerRun(2*len(thetas), func() {
			res.EntityOf(book, thetas[i%len(thetas)])
			i++
		})
		if allocs > bound {
			t.Errorf("%d persons: EntityOf at a new certainty makes %.0f allocations, bound %d", persons, allocs, bound)
		}
	}
}

// TestForestIsSmallAndFixed checks the merge forest keeps under 48 bytes
// per record plus 8 per union, by the capacities it actually holds, and
// that a sweep of 200 certainties leaves every array as it was: there is
// no per-certainty state.
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
	n, unions := res.Collection.Len(), len(ix.at)
	if held >= 48*n+8*unions {
		t.Errorf("the forest retains %d bytes for %d records and %d unions", held, n, unions)
	}
	for _, theta := range sweepCertainties(res, 200) {
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

// TestEntityCountsAtEveryCut holds EntityCounts to the oracle at every
// distinct score and at every midpoint between two adjacent ones — every
// cut the forest has, so every entry of its union and multi-report counts.
func TestEntityCountsAtEveryCut(t *testing.T) {
	res := queryFixture(t, 1, 200, true)
	old := &oracle{Resolution: res}
	thetas := []float64{res.Matches[0].Score}
	for i, m := range res.Matches[1:] {
		if prev := res.Matches[i].Score; m.Score != prev {
			thetas = append(thetas, (prev+m.Score)/2, m.Score)
		}
	}
	for _, theta := range thetas {
		want := old.Clusters(theta)
		if entities, multi := res.EntityCounts(theta); entities != len(want) || multi != multiReport(want) {
			t.Fatalf("EntityCounts(%v) = %d, %d, want %d, %d", theta, entities, multi, len(want), multiReport(want))
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
