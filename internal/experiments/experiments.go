// Package experiments regenerates every table and figure of the paper's
// empirical evaluation (Section 6) over the synthetic Names-Project-shaped
// datasets. Each experiment prints rows/series in the same shape the paper
// reports; EXPERIMENTS.md records paper-vs-measured values.
//
// A Runner memoizes the expensive shared artifacts (datasets, the blocking
// run feeding the tagging application, the simulated expert tags) so that
// one yvbench invocation can regenerate many experiments cheaply.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mfiblocks"
	"repro/internal/record"
)

// Scale selects dataset sizes: Quick for benchmarks and CI, Full for
// paper-scale runs.
type Scale int

// The two scales.
const (
	// Quick uses ~2.5K-record datasets; every experiment finishes in
	// seconds.
	Quick Scale = iota
	// Full uses paper-scale datasets (Italy ~9.5K records); the NG sweep
	// takes minutes.
	Full
)

func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Runner memoizes datasets and derived artifacts across experiments.
type Runner struct {
	ScaleMode Scale

	// PersonsOverride, when positive, replaces every preset's person
	// count — used by tests to shrink the datasets.
	PersonsOverride int

	// ScoringWorkers sets core.Options.Workers for experiments that run
	// the full pipeline; 0 keeps the GOMAXPROCS default. Results are
	// worker-count independent — only runtime changes.
	ScoringWorkers int

	mu        sync.Mutex
	italy     *dataset.Generated
	italyPre  *record.Collection
	random    *dataset.Generated
	fullShape *dataset.Generated
	tags      *dataset.TagSet
	tagScores map[record.Pair]float64
	sweep     []SweepResult
}

// NewRunner returns a runner at the given scale.
func NewRunner(scale Scale) *Runner { return &Runner{ScaleMode: scale} }

func (r *Runner) italyPersons() int {
	if r.PersonsOverride > 0 {
		return r.PersonsOverride
	}
	if r.ScaleMode == Full {
		return 4600 // ~9.5K records, the ItalySet size
	}
	return 1200
}

func (r *Runner) randomPersons() int {
	if r.PersonsOverride > 0 {
		return r.PersonsOverride
	}
	if r.ScaleMode == Full {
		return 47000 // ~100K records
	}
	return 2500
}

func (r *Runner) fullShapePersons() int {
	if r.PersonsOverride > 0 {
		return r.PersonsOverride * 3
	}
	if r.ScaleMode == Full {
		return 40000 // ~85K records standing in for 6.5M
	}
	return 6000
}

// Italy returns the (memoized) ItalySet-shaped dataset.
func (r *Runner) Italy() *dataset.Generated {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.italy == nil {
		cfg := dataset.ItalyConfig()
		cfg.Persons = r.italyPersons()
		r.italy = mustGenerate(cfg)
	}
	return r.italy
}

// ItalyPre returns the preprocessed Italy collection.
func (r *Runner) ItalyPre() *record.Collection {
	g := r.Italy()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.italyPre == nil {
		pre, err := core.PreprocessWith(g.Collection, g.Gaz)
		if err != nil {
			panic(fmt.Sprintf("experiments: preprocess: %v", err))
		}
		r.italyPre = pre
	}
	return r.italyPre
}

// Random returns the RandomSet-shaped dataset (stratified six-community
// sample).
func (r *Runner) Random() *dataset.Generated {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.random == nil {
		r.random = mustGenerate(dataset.RandomSetConfig(r.randomPersons()))
	}
	return r.random
}

// FullShape returns the full-database-shaped dataset used by the pattern
// and runtime studies.
func (r *Runner) FullShape() *dataset.Generated {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fullShape == nil {
		r.fullShape = mustGenerate(dataset.FullShapeConfig(r.fullShapePersons()))
	}
	return r.fullShape
}

// Tags returns the simulated expert tag set over the Italy candidates. As
// in the paper, candidates come from several MFIBlocks configurations
// bundled into the tagging application; each pair also carries its best
// blocking similarity (TagScores) for the Figure 8 analysis.
func (r *Runner) Tags() *dataset.TagSet {
	r.ensureTags()
	return r.tags
}

// TagScores returns each tagged pair's blocking similarity.
func (r *Runner) TagScores() map[record.Pair]float64 {
	r.ensureTags()
	return r.tagScores
}

func (r *Runner) ensureTags() {
	g := r.Italy()
	pre := r.ItalyPre()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tags != nil {
		return
	}
	scores := make(map[record.Pair]float64)
	var pairs []record.Pair
	for _, bc := range taggingConfigs() {
		res, err := mfiblocks.Run(bc, pre)
		if err == nil {
			err = res.EachPair(func(p record.Pair, s float64) {
				if _, seen := scores[p]; !seen {
					pairs = append(pairs, p)
				}
				if s > scores[p] {
					scores[p] = s
				}
			})
		}
		if err != nil {
			panic(fmt.Sprintf("experiments: tagging blocking run: %v", err))
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	tagger := &dataset.Tagger{Gold: g.Gold, Coll: g.Collection, Rng: rand.New(rand.NewSource(2016))}
	r.tags = tagger.TagPairs(pairs)
	r.tagScores = scores
}

// taggingConfigs are the "several configurations" whose candidate pairs
// the experts tagged.
func taggingConfigs() []mfiblocks.Config {
	var out []mfiblocks.Config
	for _, mms := range []int{4, 5} {
		for _, ng := range []float64{2.5, 3.5} {
			c := mfiblocks.NewConfig()
			c.MaxMinSup = mms
			c.NG = ng
			out = append(out, c)
		}
	}
	return out
}

func mustGenerate(cfg dataset.Config) *dataset.Generated {
	g, err := dataset.Generate(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: generate: %v", err))
	}
	return g
}

// header prints an experiment banner.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "== %s: %s ==\n", id, title)
}
