package mfiblocks

import (
	"fmt"

	"repro/internal/fpgrowth"
	"repro/internal/record"
)

// BlockBench exposes one iteration's block materialization — the
// cached/uncached buildBlocks loop — to the repo benchmark's staged
// per-layer metrics (mfiblocks.build_cold_ms / build_warm_ms) and the
// package's own benchmarks without exporting the engine internals. It
// freezes the mined MFIs of one minsup level so repeated calls measure
// exactly the same work.
type BlockBench struct {
	cfg    Config
	sc     *scorer
	index  *fpgrowth.Index
	mfis   []fpgrowth.Itemset
	minsup int
	cache  *blockCache
}

// NewBlockBench encodes the collection, mines the MFIs at minsup, and
// returns the frozen benchmark state. The cache used by
// BuildBlocks(true) is bounded at cfg.BlockCache (DefaultBlockCache
// when unset) and persists across calls, so every call after the first
// measures the hit path.
func NewBlockBench(cfg Config, coll *record.Collection, minsup int) (*BlockBench, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	corpus := NewCorpus(coll)
	miner := fpgrowth.NewMinerTxns(corpus.Txns)
	miner.Workers = cfg.Workers
	mfis := miner.MineMaximal(minsup, nil)
	if len(mfis) == 0 {
		return nil, fmt.Errorf("mfiblocks: bench mined no MFIs at minsup=%d", minsup)
	}
	size := cfg.BlockCache
	if size == 0 {
		size = DefaultBlockCache
	}
	return &BlockBench{
		cfg:    cfg,
		sc:     newScorer(&cfg, corpus.Dict, corpus.Txns, corpus.Records),
		index:  miner.BuildIndex(),
		mfis:   mfis,
		minsup: minsup,
		cache:  newBlockCache(size),
	}, nil
}

// BuildBlocks materializes, caps, and scores every frozen MFI through
// the engine's buildBlocks pool and returns the surviving block count.
// useCache routes the calls through the persistent cross-iteration
// cache; false measures the cold path every time.
func (b *BlockBench) BuildBlocks(useCache bool) int {
	cache := b.cache
	if !useCache {
		cache = nil
	}
	blocks, _ := buildBlocks(&b.cfg, b.sc, b.index, cache, b.mfis, b.minsup, nil)
	return len(blocks)
}
