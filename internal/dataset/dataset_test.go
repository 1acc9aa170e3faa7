package dataset

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gazetteer"
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

// TestGenerateGolden pins the corpora of two configs: Italy at 300
// persons and a six-community RandomSet drawn by one Generate call (the
// benchmark stitches single-community runs, so its fingerprints never
// make this call). Any change to what the rng draws, or in which order,
// moves the hash.
func TestGenerateGolden(t *testing.T) {
	italy := ItalyConfig()
	italy.Persons = 300
	for _, tc := range []struct {
		name      string
		cfg       Config
		sha256    string
		records   int
		truePairs int
	}{
		{"italy-300", italy, "862d9bb012e1f18961afa216620ecc2c380b98eb1bcd4b870c8c70c1469014c6", 570, 512},
		{"random-600", RandomSetConfig(600), "9dad99a3abdb7768d486f4bcd2ce0af4570f27ef95f5eac18c2f58e052c340b5", 1128, 944},
	} {
		g, err := Generate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: Generate: %v", tc.name, err)
		}
		h := sha256.New()
		if err := record.WriteJSONL(h, g.Records); err != nil {
			t.Fatalf("%s: WriteJSONL: %v", tc.name, err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.sha256 {
			t.Errorf("%s: records sha256 = %s, want %s", tc.name, got, tc.sha256)
		}
		if len(g.Records) != tc.records {
			t.Errorf("%s: %d records, want %d", tc.name, len(g.Records), tc.records)
		}
		if got := g.Gold.TruePairCount(); got != tc.truePairs {
			t.Errorf("%s: %d true pairs, want %d", tc.name, got, tc.truePairs)
		}
	}
}

// TestGenerateAllocsPerReport bounds the bytes Generate allocates per
// report. Copying the gazetteer's community places for every new
// submitter cost 7.8 KB per report here; the per-call place lists bring
// it to about 2.2 KB.
func TestGenerateAllocsPerReport(t *testing.T) {
	cfg := ItalyConfig()
	cfg.Persons = 300
	if _, err := Generate(cfg); err != nil { // warm-up: package-level tables
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Generate(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perReport := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(g.Records))
	if perReport > 3000 {
		t.Errorf("Generate allocated %.0f B per report, want <= 3000", perReport)
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
	if len(g.Gold.entityOf) != len(g.Records) {
		t.Errorf("gold reports %d != records %d", len(g.Gold.entityOf), len(g.Records))
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
		{"community 99", func(c *Config) { c.Communities[0].Comm = gazetteer.Community(99) }},
		{"community -1", func(c *Config) { c.Communities[0].Comm = gazetteer.Community(-1) }},
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

func TestTagSetCounts(t *testing.T) {
	ts := NewTagSet([]TaggedPair{{Pair: record.MakePair(1, 2), Tag: Maybe}, {Pair: record.MakePair(3, 4), Tag: Yes}})
	if ts.Len() != 2 {
		t.Errorf("Len = %d", ts.Len())
	}
	if got := ts.CountByTag(); got[Maybe] != 1 || got[Yes] != 1 || got[No] != 0 {
		t.Errorf("CountByTag = %v", got)
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
