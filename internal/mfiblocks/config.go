// Package mfiblocks implements the MFIBlocks soft-blocking algorithm
// (Kenig & Gal, Information Systems 2013) as instantiated by the paper:
// maximal frequent itemsets mined with decreasing minimum support become
// candidate blocks, filtered by a block-size cap (compact set) and a
// neighborhood-growth cap (sparse neighborhood), yielding possibly
// overlapping blocks and scored candidate record pairs.
package mfiblocks

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Config parameterizes a run. NewConfig supplies the defaults used across
// the paper's experiments.
type Config struct {
	// MaxMinSup is the initial (maximal) minimum support; the algorithm
	// iterates with minsup = MaxMinSup..2.
	MaxMinSup int
	// P caps block sizes at minsup*P (the compact-set filter of
	// Algorithm 1, line 8).
	P float64
	// NG is the neighborhood-growth parameter. Each record has a fixed
	// budget of ceil(NG*MaxMinSup) units (at least 1), counted
	// cumulatively across all minsup levels of the run. At each level
	// blocks are admitted best score first; an admitted block charges
	// each member Size()-1 units, including neighbours an earlier block
	// already counted, and a block any member cannot pay for is pruned.
	NG float64
	// ExpertWeights applies the expert item-type weighting scheme to the
	// block score instead of uniform weights.
	ExpertWeights bool
	// ExpertSim replaces the set-monotonic itemset-Jaccard block score
	// with the expert item similarity of Eq. 1 (averaged soft Jaccard
	// over member pairs). The paper found this detrimental.
	ExpertSim bool
	// Geo resolves place distances for ExpertSim.
	Geo similarity.GeoDistancer
	// PruneFraction prunes this fraction of the most frequent items
	// before mining (the paper uses 0.0003).
	PruneFraction float64
	// MinScore is the initial block score threshold (minTh).
	MinScore float64
	// Workers bounds the goroutines used across the blocking stage: the
	// MFI miner's top-level fan-out and block construction/scoring alike.
	// 0 means GOMAXPROCS, 1 runs the exact serial paths. Mined MFIs,
	// blocks, and Result.Pairs are bit-identical for every worker count.
	Workers int
	// Shards does nothing: block materialization has one path, the
	// Workers pool. The field remains only because
	// benchmark/workloads.go assigns it.
	Shards int
	// MineShards does nothing: MFI mining has one path, the Workers
	// fan-out. The field remains only because benchmark/workloads.go
	// assigns it.
	MineShards int
	// BlockCache has no effect; it remains only because
	// benchmark/workloads.go:182 uses it; ROADMAP 1(a) deletes it.
	BlockCache int
	// SpillPairs caps the distinct candidate pairs the run holds in
	// memory; 0 selects spill.DefaultCap. Spilling is the outcome of the
	// cap, not a mode: every run emits into the same accumulator, and a
	// run whose candidates fit under the cap never touches disk and
	// returns them as Pairs/PairScores. Past the cap the accumulator
	// flushes sorted runs and Result.Spill carries the merged (A, B)-sorted
	// stream — exactly the pairs and max-combined scores the resident form
	// would hold; only the per-iteration NewPairs statistic degrades to a
	// window-local count.
	SpillPairs int
	// SpillDir is where a spilling run writes its sorted runs; empty selects
	// the system temp directory. Run files are unlinked at creation, so a
	// crash leaves nothing behind.
	SpillDir string
	// Metrics has no effect: the blocking stage writes no registry (core
	// derives the mfiblocks_* families from the run report). It remains
	// only because benchmark/workloads.go:181 assigns it; ROADMAP 1(a)
	// deletes it.
	Metrics *telemetry.Registry
	// Trace, when set, parents the blocking stage's per-iteration and
	// miner spans. Nil traces nothing.
	Trace *trace.Span
	// Progress, when set, receives live item counts from the minsup
	// loop. Nil disables.
	Progress *trace.Progress
}

// NewConfig returns the defaults the paper's Italy experiments settle on:
// MaxMinSup 5, NG 3.5, uniform weights, itemset-Jaccard scoring.
func NewConfig() Config {
	return Config{
		MaxMinSup:     5,
		P:             2.5,
		NG:            3.5,
		PruneFraction: 0.0003,
		MinScore:      0.1,
	}
}

// DefaultBlockCache has no effect; it remains only because
// benchmark/workloads.go:182 uses it; ROADMAP 1(a) deletes it.
const DefaultBlockCache = 1 << 16

// Validate reports the first problem with the configuration. NaN fails
// every ordered comparison, so the finiteness checks come first — a
// NaN NG or P would otherwise slip through and poison every block
// score downstream.
func (c *Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"P", c.P}, {"NG", c.NG}, {"PruneFraction", c.PruneFraction}, {"MinScore", c.MinScore}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("mfiblocks: %s must be finite, got %v", f.name, f.v)
		}
	}
	switch {
	case c.MaxMinSup < 2:
		return fmt.Errorf("mfiblocks: MaxMinSup must be >= 2, got %d", c.MaxMinSup)
	case c.P <= 0:
		return fmt.Errorf("mfiblocks: P must be positive, got %v", c.P)
	case c.NG <= 0:
		return fmt.Errorf("mfiblocks: NG must be positive, got %v", c.NG)
	case c.PruneFraction < 0 || c.PruneFraction >= 1:
		return fmt.Errorf("mfiblocks: PruneFraction %v out of [0,1)", c.PruneFraction)
	case c.ExpertSim && c.Geo == nil:
		return fmt.Errorf("mfiblocks: ExpertSim requires Geo")
	case c.SpillPairs < 0:
		return fmt.Errorf("mfiblocks: SpillPairs must be >= 0, got %d", c.SpillPairs)
	}
	return nil
}

func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// expertWeights is the expert-derived item-type weighting for block
// scoring: identifying names and dates dominate, coarse place parts and
// low-cardinality codes contribute little.
var expertWeights = func() [record.NumItemTypes]float64 {
	var w [record.NumItemTypes]float64
	for t := 0; t < record.NumItemTypes; t++ {
		w[t] = 1 // uniform default
	}
	w[record.FirstName] = 3.0
	w[record.LastName] = 3.0
	w[record.FatherName] = 2.5
	w[record.MotherName] = 2.0
	w[record.SpouseName] = 2.0
	w[record.MaidenName] = 2.0
	w[record.MotherMaiden] = 1.5
	w[record.BirthYear] = 2.0
	w[record.BirthMonth] = 1.0
	w[record.BirthDay] = 1.0
	w[record.Gender] = 0.2
	w[record.Profession] = 0.5
	for pt := 0; pt < record.NumPlaceTypes; pt++ {
		w[record.PlaceItem(record.PlaceType(pt), record.City)] = 2.0
		w[record.PlaceItem(record.PlaceType(pt), record.County)] = 0.7
		w[record.PlaceItem(record.PlaceType(pt), record.Region)] = 0.5
		w[record.PlaceItem(record.PlaceType(pt), record.Country)] = 0.3
	}
	return w
}()

// Weight returns the scoring weight of an item type under the config.
func (c *Config) Weight(t record.ItemType) float64 {
	if c.ExpertWeights {
		return expertWeights[t]
	}
	return 1
}
