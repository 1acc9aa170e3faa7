package telemetry

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/telemetry/trace"
)

// ReportSchemaVersion identifies the RunReport JSON layout; bump it on
// any field removal or rename so downstream consumers can dispatch.
const ReportSchemaVersion = 5

// RunReport is the JSON-serializable per-stage breakdown of one
// pipeline run, and with its span tree the run's only record: core.Run
// attaches one to every Resolution and derives the run's registry
// families from it; the server exposes it at /api/report and yver
// writes it with -report.
//
// Each fact is stored once. A figure another field gives is left out:
// the run's wall clock is the sum of the stage durations, the blocks and
// the covered records come from the iterations, and the candidates the
// scoring stage read are Blocking.Pairs.
//
// Stage order is the execution order (ingest, blocking, scoring, rank)
// and is stable across runs — golden tests key on it.
type RunReport struct {
	SchemaVersion int `json:"schema_version"`
	Records       int `json:"records"`
	Workers       int `json:"workers"`
	// TornBytes is the byte count of the torn tail a streaming run's
	// store reader skipped (store.WindowReader.TornBytes); zero for
	// batch runs and intact stores.
	TornBytes int64           `json:"torn_bytes,omitempty"`
	Stages    []StageReport   `json:"stages"`
	Blocking  *BlockingReport `json:"blocking,omitempty"`
	Scoring   *ScoringReport  `json:"scoring,omitempty"`
	// Spans is the run's hierarchical trace (its own schema version,
	// trace.TreeSchemaVersion), present when the run was traced. The
	// flight recorder's summary rides inside it.
	Spans *trace.SpanTree `json:"spans,omitempty"`
}

// StageReport is one pipeline stage's wall clock.
type StageReport struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// BlockingReport is the MFIBlocks stage breakdown: the per-level
// evidence, the distinct candidate pairs, and — when the candidates
// outgrew the spill cap — the sorted runs written to disk and the
// entries they held (each entry is 24 bytes on disk).
type BlockingReport struct {
	Iterations     []IterationReport `json:"iterations"`
	Pairs          int               `json:"pairs"`
	SpillRuns      int               `json:"spill_runs,omitempty"`
	SpilledEntries int64             `json:"spilled_entries,omitempty"`
}

// IterationReport is one minsup level of the MFIBlocks loop; the
// blocking stage records it as mfiblocks.IterationStats.
type IterationReport struct {
	MinSup   int `json:"minsup"`
	Active   int `json:"active"` // uncovered records the MFIs were mined over
	MFIs     int `json:"mfis"`
	Blocks   int `json:"blocks"`    // blocks surviving all filters
	CSPruned int `json:"cs_pruned"` // dropped by the compact-set size cap
	NGPruned int `json:"ng_pruned"` // vetoed by the sparse-neighborhood cap
	// NewPairs counts the pairs first seen this iteration: exact while the
	// candidates fit under the spill cap, window-local once they spill (a
	// pair re-observed after its window went to disk counts again).
	NewPairs   int           `json:"new_pairs"`
	CoveredNow int           `json:"covered_now"` // total records covered after the iteration
	MinTh      float64       `json:"min_th"`      // score threshold after NG enforcement
	Elapsed    time.Duration `json:"duration_ns"`
}

// ScoringReport is the pair-scoring stage breakdown. Every candidate is
// either dropped or matched, so Blocking.Pairs = SameSrcDropped +
// ModelDropped + Matches.
type ScoringReport struct {
	SameSrcDropped int `json:"same_src_dropped"`
	ModelDropped   int `json:"model_dropped"`
	Matches        int `json:"matches"`
	// FeaturesEvaluated counts the pair features the model's tree walk
	// pulled, summed over every candidate it scored (0 without a model).
	// Deterministic: it depends on the candidates and the model alone.
	FeaturesEvaluated int64 `json:"features_evaluated"`
	// InternedStrings counts the distinct q-grams, lowered name values
	// and full birth dates the model's profiles interned: only the inputs
	// of the features the model tests, so fewer than full profiles would
	// intern (0 without a model).
	InternedStrings int `json:"interned_strings"`
	// Scores is the distribution of ranked-match scores (ScoreBuckets
	// layout). Omitted when no pairs were scored.
	Scores *HistogramSnapshot `json:"scores,omitempty"`
}

// WriteFile writes the report, indented JSON, to path (the CLIs'
// -report flag).
func (r *RunReport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
