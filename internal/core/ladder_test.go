package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gazetteer"
	"repro/internal/store"
	"repro/internal/telemetry/trace"
)

// ladderRungs are the scale ladder's RandomSet sizes, named by report
// count: the preset yields about two reports per person.
var ladderRungs = []struct {
	name    string
	persons int
}{
	{"100K", 50_000},
	{"250K", 125_000},
	{"500K", 250_000},
	{"1M", 500_000},
}

// ladderOps are the per-iteration spans the ladder reports, by minsup
// level. mine includes its maximal_merge.
var ladderOps = []string{"mine", "maximal_merge", "build_blocks", "enforce_ng", "emit_pairs"}

// BenchmarkLadder is the scale ladder: each rung generates a RandomSet,
// writes it to a .yvst store and streams it through RunStream with the
// options yver runs without a model (tracing on, for the per-level
// spans). Besides ns/op it reports gen_s, the wall seconds spent
// generating the corpus and writing the store before the timed op, the
// records, the blocking candidates and their pairs completeness (PC)
// against the generator's gold, the stage seconds, and the seconds of
// every minsup level's mine, maximal_merge, build_blocks, enforce_ng and
// emit_pairs spans, averaged over the iterations. The sub-benchmark
// pattern picks the rungs; each generates its corpus only when selected:
//
//	go test -run '^$' -bench Ladder -benchtime 1x ./internal/core/
//	go test -run '^$' -bench 'Ladder/100K$' -benchtime 1x ./internal/core/
func BenchmarkLadder(b *testing.B) {
	for _, rung := range ladderRungs {
		b.Run(rung.name, func(b *testing.B) {
			start := time.Now()
			path, gold := ladderCorpus(b, rung.persons)
			genSeconds := time.Since(start).Seconds()
			runtime.GC() // the generated records are garbage: the run reads the store
			opts := NewOptions(gazetteer.Builtin(0))
			opts.Classify = false
			var records, candidates, found int
			stages := map[string]float64{}
			levels := map[string]float64{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := store.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				opts.Trace = trace.New()
				res, err := RunStream(StreamOptions{Options: opts}, src)
				src.Close()
				if err != nil {
					b.Fatal(err)
				}
				if res.Blocking.Spill != nil {
					b.Fatal("the candidates spilled: PC reads them resident")
				}
				records, candidates, found = res.Report.Records, len(res.Blocking.Pairs), 0
				for _, p := range res.Blocking.Pairs {
					if gold.Match(p.A, p.B) {
						found++
					}
				}
				for _, st := range res.Report.Stages {
					stages[st.Name] += float64(st.DurationNS) / 1e9
				}
				addLevelSeconds(levels, opts.Trace.Tree(trace.Full).Roots)
			}
			b.StopTimer()
			b.ReportMetric(genSeconds, "gen_s")
			b.ReportMetric(float64(records), "records")
			b.ReportMetric(float64(candidates), "candidates")
			b.ReportMetric(float64(found)/float64(gold.TruePairCount()), "PC")
			for name, s := range stages {
				b.ReportMetric(s/float64(b.N), name+"_s")
			}
			for key, s := range levels {
				b.ReportMetric(s/float64(b.N), key)
			}
		})
	}
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
