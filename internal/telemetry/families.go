package telemetry

// Well-known metric family names shared between the HTTP serving layer
// and its tests. The registry creates families on first use, so these
// constants are the single place the resilience middleware and the
// /metrics assertions agree on spelling.
const (
	// FamilyHTTPPanics counts handler panics converted to JSON 500s by
	// the recovery middleware, labeled by route. The server keeps
	// serving; a non-zero value is a bug report, not an outage.
	FamilyHTTPPanics = "http_panics_total"
	// FamilyHTTPShed counts requests rejected with 503 + Retry-After by
	// the max-inflight load shedder, labeled by route.
	FamilyHTTPShed = "http_shed_total"
	// FamilyHTTPTimeouts counts requests answered with 503 because the
	// handler exceeded the per-request deadline, labeled by route.
	FamilyHTTPTimeouts = "http_timeouts_total"
)

// Blocking-engine families (fpgrowth_*): the miner reports per-call tree
// construction and mining wall clock, the worker fan-out width, and the
// cost of the deterministic merge of worker-local MFI stores.
const (
	// FamilyFPGrowthTreeBuild times one flat FP-tree construction
	// (frequency ordering plus transaction insertion).
	FamilyFPGrowthTreeBuild = "fpgrowth_tree_build_seconds"
	// FamilyFPGrowthMine times one full mining call (fan-out, merge, and
	// maximality sweep included for MineMaximal).
	FamilyFPGrowthMine = "fpgrowth_mine_seconds"
	// FamilyFPGrowthMerge times the maximality merge of the worker-local
	// MFI stores (cross-store check plus translation to item ids), once
	// per MineMaximal call at every worker count.
	FamilyFPGrowthMerge = "fpgrowth_merge_seconds"
	// FamilyFPGrowthWorkers gauges the worker count the last MineMaximal
	// fanned its top-level items out to (after clamping to the item
	// count).
	FamilyFPGrowthWorkers = "fpgrowth_workers"
)

// Scoring-kernel families (features_*): the string interner backing the
// profiled extraction path.
const (
	// FamilyInternedStrings gauges the distinct strings (q-grams and
	// lowered name values) the extractor interned for its profiles.
	FamilyInternedStrings = "features_interned_strings"
)
