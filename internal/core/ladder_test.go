package core

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"repro/internal/adtree"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/gazetteer"
	"repro/internal/store"
	"repro/internal/telemetry/trace"
)

var (
	e2eWrite = flag.Bool("e2e-write", false, "BenchmarkLadder: write each row rung's columns into BENCH_e2e.json at the repo root")
	e2eCheck = flag.Bool("e2e-check", false, "BenchmarkLadder: fail a row rung whose quality columns differ from its BENCH_e2e.json row")
)

// e2ePath is BENCH_e2e.json at the repo root, from this package's
// directory, where go test runs.
const e2ePath = "../../BENCH_e2e.json"

// ladderRungs are the scale ladder's RandomSet sizes, named by report
// count: the preset yields about two reports per person. The rows of
// BENCH_e2e.json are the row rungs'.
var ladderRungs = []struct {
	name    string
	persons int
	row     bool
}{
	{"100K", 50_000, true},
	{"250K", 125_000, true},
	{"500K", 250_000, false},
	{"1M", 500_000, true},
}

// ladderOps are the per-iteration spans the ladder reports, by minsup
// level. mine includes its maximal_merge.
var ladderOps = []string{"mine", "maximal_merge", "build_blocks", "enforce_ng", "emit_pairs"}

// ladderThetas are the certainties the ladder resolves entities at.
var ladderThetas = [2]float64{0, 1}

// e2eRow is one rung's row of BENCH_e2e.json. Quality holds the columns
// that follow from the code alone, which CI compares exactly; the rest
// are the seconds and bytes of the machine that wrote the row.
type e2eRow struct {
	Rung      string             `json:"rung"`
	NameSpace string             `json:"name_space"`
	CPUs      int                `json:"cpus"`
	GenS      float64            `json:"gen_s"`
	TrainS    float64            `json:"train_s"`
	WallS     float64            `json:"wall_s"`
	StageS    map[string]float64 `json:"stage_s"`
	LevelS    map[string]float64 `json:"level_s"`
	// HeapMB is the live heap at each stage's end: a forced GC, then
	// runtime/metrics' /gc/heap/live:bytes, the heap objects that GC
	// found reachable (not RSS, and no garbage). WallS leaves the GC
	// out, as the stage seconds do.
	HeapMB  map[string]float64 `json:"heap_mb"`
	Quality e2eQuality         `json:"quality"`
}

// e2eQuality is a rung's outcome against the generator's gold: the
// blocking candidates and their pairs completeness, the ranked matches'
// pair precision, recall and F1, and the entities at each ladderThetas
// certainty.
type e2eQuality struct {
	Records       int            `json:"records"`
	Candidates    int            `json:"candidates"`
	PC            float64        `json:"pc"`
	Matches       int            `json:"matches"`
	PairPrecision float64        `json:"pair_precision"`
	PairRecall    float64        `json:"pair_recall"`
	PairF1        float64        `json:"pair_f1"`
	Entities      [2]e2eEntities `json:"entities"`
}

// e2eEntities describes the entities at one certainty: how many, how
// many merge more than eight reports (more than any person has in the
// generator), the largest, and their B-cubed precision and recall.
type e2eEntities struct {
	Theta           float64 `json:"theta"`
	Entities        int     `json:"entities"`
	Over8           int     `json:"over_8"`
	Largest         int     `json:"largest"`
	BCubedPrecision float64 `json:"bcubed_precision"`
	BCubedRecall    float64 `json:"bcubed_recall"`
}

// BenchmarkLadder is the scale ladder: each rung generates a RandomSet,
// writes it to a .yvst store and streams it through RunStream with the
// options `yver -model` runs — NewOptions, records retained, the model
// ladderModel trains, Classify on — and tracing on, for the per-level
// spans. Besides ns/op it reports gen_s, the wall seconds spent
// generating the corpus and writing the store before the timed op;
// train_s, the untimed training once per test binary; the records, the
// blocking candidates and their pairs completeness (PC) against the
// generator's gold; the matches' pair P, R and F1; at certainties 0 and
// 1 the entities, those of more than eight reports, the largest and the
// B-cubed P and R; the stage seconds and the live heap at each stage's
// end, after a forced GC that no clock but ns/op includes;
// and the seconds of every minsup level's mine, maximal_merge,
// build_blocks, enforce_ng and emit_pairs spans, averaged over the
// iterations. The sub-benchmark pattern picks the rungs; each generates
// its corpus only when selected:
//
//	go test -run '^$' -bench Ladder -benchtime 1x ./internal/core/
//	go test -run '^$' -bench 'Ladder/100K$' -benchtime 1x ./internal/core/
//
// After the package path, -e2e-write writes the 100K, 250K and 1M rungs'
// rows into BENCH_e2e.json at the repo root (rows of rungs not run stay
// as they are), and -e2e-check fails such a rung whose quality columns
// differ from its committed row.
func BenchmarkLadder(b *testing.B) {
	for _, rung := range ladderRungs {
		b.Run(rung.name, func(b *testing.B) {
			model, trainSeconds := ladderModel(b)
			start := time.Now()
			path, gold := ladderCorpus(b, rung.persons)
			genSeconds := time.Since(start).Seconds()
			runtime.GC() // the generated records are garbage: the run reads the store
			opts := NewOptions(gazetteer.Builtin(0))
			opts.Model = model
			row := e2eRow{Rung: rung.name, NameSpace: "curated", CPUs: runtime.GOMAXPROCS(0), GenS: genSeconds, TrainS: trainSeconds,
				StageS: map[string]float64{}, LevelS: map[string]float64{}, HeapMB: map[string]float64{}}
			var res *Resolution
			heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			var hookS float64 // time spent in stageEnded, taken out of WallS
			stageEnded = func(name string) {
				t0 := time.Now()
				runtime.GC()
				metrics.Read(heap)
				row.HeapMB[name] += float64(heap[0].Value.Uint64()) / (1 << 20)
				hookS += time.Since(t0).Seconds()
			}
			defer func() { stageEnded = nil }()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = nil // the last iteration's resolution is garbage
				src, err := store.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				opts.Trace = trace.New()
				t0 := time.Now()
				res, err = RunStream(StreamOptions{Options: opts, RetainRecords: true}, src)
				row.WallS += time.Since(t0).Seconds()
				src.Close()
				if err != nil {
					b.Fatal(err)
				}
				if res.Blocking.Spill != nil {
					b.Fatal("the candidates spilled: PC reads them resident")
				}
				for _, st := range res.Report.Stages {
					row.StageS[st.Name] += float64(st.DurationNS) / 1e9
				}
				addLevelSeconds(row.LevelS, opts.Trace.Tree(trace.Full).Roots)
			}
			b.StopTimer()
			stageEnded = nil
			row.Quality = ladderQuality(b, res, gold)
			for _, m := range []map[string]float64{row.StageS, row.LevelS, row.HeapMB} {
				for k := range m {
					m[k] /= float64(b.N)
				}
			}
			row.WallS = (row.WallS - hookS) / float64(b.N)
			reportLadder(b, &row)
			if rung.row && *e2eCheck {
				checkE2ERow(b, &row)
			}
			if rung.row && *e2eWrite {
				writeE2ERow(b, &row)
			}
		})
	}
}

// ladderQuality measures a rung's resolution against the gold.
func ladderQuality(b *testing.B, res *Resolution, gold *dataset.Gold) e2eQuality {
	q := e2eQuality{Records: res.Collection.Len(), Candidates: len(res.Blocking.Pairs), Matches: len(res.Matches)}
	found := 0
	for _, p := range res.Blocking.Pairs {
		if gold.Match(p.A, p.B) {
			found++
		}
	}
	q.PC = float64(found) / float64(gold.TruePairCount())
	pairs := eval.Evaluate(res.Pairs(), eval.NewPairSet(gold.TruePairs()))
	q.PairPrecision, q.PairRecall, q.PairF1 = pairs.Precision, pairs.Recall, pairs.F1

	truth := make([]int, q.Records)
	for i, r := range res.Collection.Records {
		e, ok := gold.Entity(r.BookID)
		if !ok {
			b.Fatalf("report %d has no gold entity", r.BookID)
		}
		truth[i] = e
	}
	for k, theta := range ladderThetas {
		cluster, sizes := entityLabels(res, theta)
		e := e2eEntities{Theta: theta, Entities: len(sizes)}
		for _, n := range sizes {
			e.Largest = max(e.Largest, n)
			if n > 8 {
				e.Over8++
			}
		}
		var err error
		if e.BCubedPrecision, e.BCubedRecall, err = eval.BCubed(cluster, truth); err != nil {
			b.Fatal(err)
		}
		q.Entities[k] = e
	}
	return q
}

// entityLabels resolves the matches at certainty theta into entities:
// each record's entity label, by collection position, and each entity's
// size, by label. It is the connected components Resolution.Clusters
// returns, without building their merged values.
func entityLabels(res *Resolution, theta float64) (labels []int, sizes map[int]int) {
	coll := res.Collection
	parent := make([]int, coll.Len())
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, m := range res.AtCertainty(theta) {
		parent[find(coll.Index(m.Pair.A))] = find(coll.Index(m.Pair.B))
	}
	labels = make([]int, coll.Len())
	sizes = map[int]int{}
	for i := range labels {
		labels[i] = find(i)
		sizes[labels[i]]++
	}
	return labels, sizes
}

// reportLadder reports a rung's row as benchmark metrics.
func reportLadder(b *testing.B, row *e2eRow) {
	q := &row.Quality
	b.ReportMetric(row.GenS, "gen_s")
	b.ReportMetric(row.TrainS, "train_s")
	b.ReportMetric(float64(q.Records), "records")
	b.ReportMetric(float64(q.Candidates), "candidates")
	b.ReportMetric(q.PC, "PC")
	b.ReportMetric(q.PairPrecision, "P")
	b.ReportMetric(q.PairRecall, "R")
	b.ReportMetric(q.PairF1, "F1")
	for _, e := range q.Entities {
		at := fmt.Sprintf("_at%g", e.Theta)
		b.ReportMetric(float64(e.Entities), "entities"+at)
		b.ReportMetric(float64(e.Over8), "over8"+at)
		b.ReportMetric(float64(e.Largest), "largest"+at)
		b.ReportMetric(e.BCubedPrecision, "bcubedP"+at)
		b.ReportMetric(e.BCubedRecall, "bcubedR"+at)
	}
	for name, s := range row.StageS {
		b.ReportMetric(s, name+"_s")
	}
	for name, mb := range row.HeapMB {
		b.ReportMetric(mb, name+"_heap_MB")
	}
	for key, s := range row.LevelS {
		b.ReportMetric(s, key)
	}
}

// e2eFile is BENCH_e2e.json: one row per rung, in ladder order.
type e2eFile struct {
	Rows []e2eRow `json:"rows"`
}

func readE2E() (*e2eFile, error) {
	var f e2eFile
	data, err := os.ReadFile(e2ePath)
	if errors.Is(err, fs.ErrNotExist) {
		return &f, nil
	}
	if err != nil {
		return nil, err
	}
	return &f, json.Unmarshal(data, &f)
}

// checkE2ERow fails unless the committed row of the rung has exactly
// row's quality columns.
func checkE2ERow(b *testing.B, row *e2eRow) {
	f, err := readE2E()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range f.Rows {
		if r.Rung == row.Rung {
			if r.Quality != row.Quality {
				b.Fatalf("%s: the quality columns differ from BENCH_e2e.json's row:\n got  %+v\n want %+v", row.Rung, row.Quality, r.Quality)
			}
			return
		}
	}
	b.Fatalf("BENCH_e2e.json has no %s row", row.Rung)
}

// writeE2ERow puts row into BENCH_e2e.json in place of the rung's old
// row, keeping the rows in ladder order.
func writeE2ERow(b *testing.B, row *e2eRow) {
	f, err := readE2E()
	if err != nil {
		b.Fatal(err)
	}
	byRung := map[string]e2eRow{row.Rung: *row}
	for _, r := range f.Rows {
		if _, ok := byRung[r.Rung]; !ok {
			byRung[r.Rung] = r
		}
	}
	var out e2eFile
	for _, rung := range ladderRungs {
		if r, ok := byRung[rung.name]; ok {
			out.Rows = append(out.Rows, r)
		}
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(e2ePath, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// The ladder's model set-up: a RandomSet of ladderTrainPersons persons,
// its seed ladderTrainSeed apart from every rung's, resolved as yver
// runs without a model; the simulated experts (dataset.Tagger, seeded
// with the training set's seed) tag its candidates in first-seen order,
// and an ADTree is trained on the tags with the Maybe tags left out.
const (
	ladderTrainPersons = 2000
	ladderTrainSeed    = 1000
)

var ladderModelOnce struct {
	sync.Once
	model   *adtree.Model
	seconds float64
	err     error
}

// ladderModel trains the ladder's model once per test binary and
// returns it with the wall seconds training took.
func ladderModel(b *testing.B) (*adtree.Model, float64) {
	o := &ladderModelOnce
	o.Do(func() {
		start := time.Now()
		o.model, o.err = trainLadderModel()
		o.seconds = time.Since(start).Seconds()
	})
	if o.err != nil {
		b.Fatal(o.err)
	}
	return o.model, o.seconds
}

func trainLadderModel() (*adtree.Model, error) {
	cfg := dataset.RandomSetConfig(ladderTrainPersons)
	cfg.Seed += ladderTrainSeed
	g, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	gaz := gazetteer.Builtin(0)
	opts := NewOptions(gaz)
	opts.Classify = false
	res, err := Run(opts, g.Collection)
	if err != nil {
		return nil, err
	}
	tagger := &dataset.Tagger{Gold: g.Gold, Coll: g.Collection, Rng: rand.New(rand.NewSource(cfg.Seed))}
	return TrainModel(adtree.NewTrainConfig(), tagger.TagPairs(res.Blocking.Pairs), g.Collection, gaz, OmitMaybe)
}

// ladderCorpus generates the RandomSet of persons persons into a .yvst
// store in a temporary directory and returns its path and the gold.
func ladderCorpus(b *testing.B, persons int) (string, *dataset.Gold) {
	gen, err := dataset.Generate(dataset.RandomSetConfig(persons))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "records.yvst")
	if err := store.WriteAll(path, gen.Records); err != nil {
		b.Fatal(err)
	}
	return path, gen.Gold
}

// addLevelSeconds adds the seconds of every ladderOps span under each
// blocking iteration of the span forest to into, keyed
// "minsup<level>_<op>_s".
func addLevelSeconds(into map[string]float64, roots []*trace.Node) {
	for _, n := range roots {
		if n.Name == "iteration" {
			level := n.Attrs["minsup"]
			var walk func(*trace.Node)
			walk = func(c *trace.Node) {
				for _, op := range ladderOps {
					if c.Name == op {
						into[fmt.Sprintf("minsup%d_%s_s", level, op)] += float64(c.DurationNS) / 1e9
					}
				}
				for _, k := range c.Children {
					walk(k)
				}
			}
			for _, c := range n.Children {
				walk(c)
			}
			continue
		}
		addLevelSeconds(into, n.Children)
	}
}
