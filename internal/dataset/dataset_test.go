package dataset

import (
	"math/rand"
	"testing"

	"repro/internal/record"
)

func genSmall(t testing.TB, persons int) *Generated {
	t.Helper()
	cfg := ItalyConfig()
	cfg.Persons = persons
	g, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g
}

// TestGenerateDeterministic covers the single-community preset and the
// six-community one, whose victim lists used to be drawn in map order.
func TestGenerateDeterministic(t *testing.T) {
	italy := ItalyConfig()
	italy.Persons = 300
	for _, cfg := range []Config{italy, RandomSetConfig(300)} {
		a, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		b, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		if len(a.Records) != len(b.Records) {
			t.Fatalf("%d communities: record counts differ: %d vs %d", len(cfg.Communities), len(a.Records), len(b.Records))
		}
		for i := range a.Records {
			if a.Records[i].String() != b.Records[i].String() {
				t.Fatalf("%d communities: record %d differs:\n%s\n%s", len(cfg.Communities), i, a.Records[i], b.Records[i])
			}
			if a.Records[i].Source != b.Records[i].Source {
				t.Fatalf("%d communities: record %d source differs", len(cfg.Communities), i)
			}
		}
	}
}

func TestSeedChangesOutput(t *testing.T) {
	cfg := ItalyConfig()
	cfg.Persons = 200
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	n := len(a.Records)
	if len(b.Records) < n {
		n = len(b.Records)
	}
	for i := 0; i < n; i++ {
		if a.Records[i].String() == b.Records[i].String() {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical datasets")
	}
}

func TestClusterSizesBounded(t *testing.T) {
	g := genSmall(t, 500)
	for size := range g.Gold.ClusterSizes() {
		if size < 1 || size > MaxReportsPerPerson {
			t.Errorf("cluster size %d outside 1..%d", size, MaxReportsPerPerson)
		}
	}
}

func TestEveryRecordInGold(t *testing.T) {
	g := genSmall(t, 300)
	for _, r := range g.Records {
		e, ok := g.Gold.Entity(r.BookID)
		if !ok {
			t.Fatalf("record %d missing from gold", r.BookID)
		}
		if e < 0 || e >= len(g.Persons) {
			t.Fatalf("record %d has entity %d outside person range", r.BookID, e)
		}
		if _, ok := g.Gold.Family(r.BookID); !ok {
			t.Fatalf("record %d missing family", r.BookID)
		}
	}
	if g.Gold.Reports() != len(g.Records) {
		t.Errorf("gold reports %d != records %d", g.Gold.Reports(), len(g.Records))
	}
}

func TestTruePairsConsistent(t *testing.T) {
	g := genSmall(t, 300)
	pairs := g.Gold.TruePairs()
	if len(pairs) != g.Gold.TruePairCount() {
		t.Errorf("TruePairs len %d != TruePairCount %d", len(pairs), g.Gold.TruePairCount())
	}
	for _, p := range pairs {
		if !g.Gold.Match(p.A, p.B) {
			t.Fatalf("true pair %v does not Match", p)
		}
		if !g.Gold.SameFamily(p.A, p.B) {
			t.Fatalf("same entity implies same family: %v", p)
		}
	}
	// FamilyPairs is a superset of TruePairs.
	famSet := map[record.Pair]bool{}
	for _, p := range g.Gold.FamilyPairs() {
		famSet[p] = true
	}
	for _, p := range pairs {
		if !famSet[p] {
			t.Fatalf("true pair %v missing from family pairs", p)
		}
	}
}

func TestMVSubmitterShape(t *testing.T) {
	g := genSmall(t, 800)
	if g.MVSource == "" {
		t.Fatal("Italy config must produce an MV submitter")
	}
	mv := 0
	wantPattern := map[record.ItemType]bool{}
	for _, ty := range mvPattern {
		wantPattern[ty] = true
	}
	for _, r := range g.Records {
		if r.Source != g.MVSource {
			continue
		}
		mv++
		if r.Kind != record.Testimony {
			t.Errorf("MV record %d is not a testimony", r.BookID)
		}
		for _, it := range r.Items {
			if !wantPattern[it.Type] {
				t.Errorf("MV record %d carries unexpected item type %v", r.BookID, it.Type)
			}
		}
	}
	share := float64(mv) / float64(len(g.Records))
	if share < 0.10 || share > 0.30 {
		t.Errorf("MV share = %.3f (%d of %d), want ~0.2", share, mv, len(g.Records))
	}
}

func TestSourcesWellFormed(t *testing.T) {
	g := genSmall(t, 300)
	for _, r := range g.Records {
		if r.Source == "" {
			t.Fatalf("record %d has no source", r.BookID)
		}
		switch r.Kind {
		case record.Testimony:
			if len(r.Source) < len("submitter:") || r.Source[:10] != "submitter:" {
				t.Errorf("testimony %d has source %q", r.BookID, r.Source)
			}
		case record.List:
			if r.Source[:5] != "list:" {
				t.Errorf("list record %d has source %q", r.BookID, r.Source)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	base := ItalyConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no persons", func(c *Config) { c.Persons = 0 }},
		{"no communities", func(c *Config) { c.Communities = nil }},
		{"bad testimony fraction", func(c *Config) { c.TestimonyFraction = 1.5 }},
		{"bad mv share", func(c *Config) { c.MVSubmitterShare = -0.1 }},
		{"long reports dist", func(c *Config) { c.ReportsDist = make([]float64, 9) }},
		{"empty reports dist", func(c *Config) { c.ReportsDist = nil }},
		{"negative weight", func(c *Config) { c.Communities[0].Weight = -1 }},
		{"negative dist weight", func(c *Config) { c.ReportsDist[0] = -1 }},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Communities = append([]CommunityWeight(nil), base.Communities...)
		cfg.ReportsDist = append([]float64(nil), base.ReportsDist...)
		tc.mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: Generate succeeded, want error", tc.name)
		}
	}
}

func TestPresetsValid(t *testing.T) {
	for _, cfg := range []Config{ItalyConfig(), RandomSetConfig(100), FullShapeConfig(100)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
}

func TestTaggerGrading(t *testing.T) {
	g := genSmall(t, 500)
	tagger := &Tagger{Gold: g.Gold, Coll: g.Collection, Rng: rand.New(rand.NewSource(1))}

	// Tag all true pairs plus an equal number of random non-pairs.
	pairs := g.Gold.TruePairs()
	rng := rand.New(rand.NewSource(2))
	n := len(g.Records)
	for i := 0; i < len(g.Gold.TruePairs()); i++ {
		a := g.Records[rng.Intn(n)].BookID
		b := g.Records[rng.Intn(n)].BookID
		if a != b && !g.Gold.Match(a, b) {
			pairs = append(pairs, record.MakePair(a, b))
		}
	}
	ts := tagger.TagPairs(pairs)

	var matchYes, matchTotal, nonYes, nonTotal int
	for _, tp := range ts.Pairs {
		if g.Gold.Match(tp.Pair.A, tp.Pair.B) {
			matchTotal++
			if tp.Tag.IsMatch() {
				matchYes++
			}
		} else {
			nonTotal++
			if tp.Tag.IsMatch() {
				nonYes++
			}
		}
	}
	if matchTotal == 0 || nonTotal == 0 {
		t.Fatal("degenerate tag distribution")
	}
	if rate := float64(matchYes) / float64(matchTotal); rate < 0.6 {
		t.Errorf("only %.2f of true pairs graded match", rate)
	}
	if rate := float64(nonYes) / float64(nonTotal); rate > 0.1 {
		t.Errorf("%.2f of non-pairs graded match", rate)
	}
	// Histogram covers all five grades on this mix.
	hist := ts.CountByTag()
	for tag, c := range hist {
		if c == 0 {
			t.Errorf("grade %v never assigned", Tag(tag))
		}
	}
}

func TestTagSetLookup(t *testing.T) {
	p := record.MakePair(1, 2)
	ts := NewTagSet([]TaggedPair{{Pair: p, Tag: Maybe}})
	if got, ok := ts.Lookup(p); !ok || got != Maybe {
		t.Errorf("Lookup = %v, %v", got, ok)
	}
	if _, ok := ts.Lookup(record.MakePair(3, 4)); ok {
		t.Error("unknown pair should be !ok")
	}
	if ts.Len() != 1 {
		t.Errorf("Len = %d", ts.Len())
	}
}

func TestTagSemantics(t *testing.T) {
	if !Yes.IsMatch() || !ProbablyYes.IsMatch() {
		t.Error("Yes/ProbablyYes must be matches")
	}
	if Maybe.IsMatch() || ProbablyNo.IsMatch() || No.IsMatch() {
		t.Error("Maybe and below must not be matches")
	}
	for i := 0; i < NumTags; i++ {
		if Tag(i).String() == "Tag(?)" {
			t.Errorf("tag %d has no name", i)
		}
	}
}

func TestCommunityMixInRandomSet(t *testing.T) {
	g, err := Generate(RandomSetConfig(600))
	if err != nil {
		t.Fatal(err)
	}
	comms := map[string]int{}
	for _, p := range g.Persons {
		comms[p.Comm.String()]++
	}
	if len(comms) < 5 {
		t.Errorf("random set has only %d communities: %v", len(comms), comms)
	}
	if comms["Poland"] <= comms["Italy"] {
		t.Errorf("Poland should dominate Italy in the mix: %v", comms)
	}
}

func TestFamilyStructure(t *testing.T) {
	g := genSmall(t, 300)
	for _, fam := range g.Families {
		if len(fam.Members) < 2 {
			t.Fatalf("family %d has %d members", fam.ID, len(fam.Members))
		}
		father, mother := fam.Members[0], fam.Members[1]
		if father.Spouse != mother.First || mother.Spouse != father.First {
			t.Errorf("family %d spouses inconsistent", fam.ID)
		}
		for _, child := range fam.Members[2:] {
			if child.Father != father.First || child.Mother != mother.First {
				t.Errorf("family %d child parent names inconsistent", fam.ID)
			}
			if child.Last != fam.Last {
				t.Errorf("family %d child last name %q != %q", fam.ID, child.Last, fam.Last)
			}
		}
	}
}
