package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/dataset"
	"repro/internal/fpgrowth"
	"repro/internal/mfiblocks"
	"repro/internal/record"
)

// Fig8 reports the proportion of expert tags per blocking-similarity bin
// (0.1 .. 1.0): high-similarity bins should be dominated by Yes tags and
// low bins by No tags, with aberrations flagged for tag validation.
func (r *Runner) Fig8(w io.Writer) error {
	header(w, "Figure 8", "Tag-Similarity Comparison")
	tags := r.Tags()
	scores := r.TagScores()

	const bins = 10
	var counts [bins][dataset.NumTags]int
	var totals [bins]int
	for _, tp := range tags.Pairs {
		s := scores[tp.Pair]
		bin := min(int(s*bins), bins-1) // scores lie in (0,1]
		counts[bin][tp.Tag]++
		totals[bin]++
	}
	fmt.Fprintf(w, "%-10s %8s", "Similarity", "N")
	for t := dataset.NumTags - 1; t >= 0; t-- {
		fmt.Fprintf(w, " %12s", dataset.Tag(t))
	}
	fmt.Fprintln(w)
	for b := 0; b < bins; b++ {
		fmt.Fprintf(w, "%-10.1f %8d", float64(b+1)/bins, totals[b])
		for t := dataset.NumTags - 1; t >= 0; t-- {
			fmt.Fprintf(w, " %11.1f%%", pct(counts[b][t], totals[b]))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// fig11Buckets are the paper's pattern-count buckets: patterns shared by
// up to 10, 100, 1K, 10K, and more records.
var fig11Buckets = []int{10, 100, 1000, 10000}

// Fig11 reports the data-pattern histogram over the full-shaped dataset:
// per bucket, how many distinct patterns fall in it and how many records
// those patterns cover.
func (r *Runner) Fig11(w io.Writer) error {
	header(w, "Figure 11", "Data Pattern Counts")
	coll := r.FullShape().Collection
	patterns := coll.PatternCounts()

	nBuckets := len(fig11Buckets) + 1
	patCount := make([]int, nBuckets)
	recSum := make([]int, nBuckets)
	for _, n := range patterns {
		b := sort.SearchInts(fig11Buckets, n)
		patCount[b]++
		recSum[b] += n
	}
	fmt.Fprintf(w, "%-24s %10s %12s\n", "# Records with pattern", "#patterns", "sum#records")
	labels := []string{"<=10", "<=100", "<=1000", "<=10000", "more"}
	for b := 0; b < nBuckets; b++ {
		fmt.Fprintf(w, "%-24s %10d %12d\n", labels[b], patCount[b], recSum[b])
	}
	fmt.Fprintf(w, "distinct patterns: %d over %d records\n", len(patterns), coll.Len())

	// The paper also reports the most prevalent pattern and the count of
	// full-information records. A tie goes to the lower pattern value,
	// so the line does not depend on map order.
	var best record.Pattern
	bestN := 0
	for p, n := range patterns {
		if n > bestN || n == bestN && p < best {
			best, bestN = p, n
		}
	}
	fmt.Fprintf(w, "most prevalent pattern (%d records): %s\n", bestN, best)
	fmt.Fprintf(w, "full-information records: %d\n", patterns[record.FullPattern()])
	return nil
}

// Fig12 reports FP-Growth mining runtime against the minsup parameter for
// two dataset sizes, with and without frequent-item pruning (the paper's
// 6.5M/600K pair scaled down per the documented substitution).
func (r *Runner) Fig12(w io.Writer) error {
	header(w, "Figure 12", "FP-Growth Run-Time (seconds)")
	// Mining at minsup=2 is exponential in practice; the runtime study
	// caps its own dataset sizes so the 4x4 grid completes in minutes
	// (the shape — growth with decreasing minsup, linearity in size, the
	// pruning gap — is what the figure demonstrates).
	bigPersons := 6000
	if r.ScaleMode == Full {
		bigPersons = 12000
	}
	if r.PersonsOverride > 0 {
		bigPersons = r.PersonsOverride * 3
	}
	bigCfg := dataset.FullShapeConfig(bigPersons)
	big := mustGenerate(bigCfg)
	smallCfg := dataset.FullShapeConfig(bigPersons / 10)
	smallCfg.Seed = 1992
	small := mustGenerate(smallCfg)

	type series struct {
		name  string
		gen   *dataset.Generated
		prune bool
	}
	sets := []series{
		{fmt.Sprint(big.Collection.Len()), big, false},
		{fmt.Sprintf("%d,Prune", big.Collection.Len()), big, true},
		{fmt.Sprint(small.Collection.Len()), small, false},
		{fmt.Sprintf("%d,Prune", small.Collection.Len()), small, true},
	}
	minsups := []int{5, 4, 3, 2}
	fmt.Fprintf(w, "%-14s", "series")
	for _, ms := range minsups {
		fmt.Fprintf(w, " minsup=%d  ", ms)
	}
	fmt.Fprintln(w)
	for _, s := range sets {
		corpus := mfiblocks.NewCorpus(s.gen.Collection)
		miner := fpgrowth.NewMinerTxns(corpus.Txns)
		if s.prune {
			miner.Prune(corpus.Dict.MostFrequent(0.0003))
		}
		fmt.Fprintf(w, "%-14s", s.name)
		for _, ms := range minsups {
			t0 := r.now()
			miner.MineMaximal(ms, nil)
			fmt.Fprintf(w, " %8.3fs", r.now().Sub(t0).Seconds())
		}
		fmt.Fprintln(w)
	}
	return nil
}
