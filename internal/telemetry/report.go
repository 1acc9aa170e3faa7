package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"time"

	"repro/internal/telemetry/trace"
)

// ReportSchemaVersion identifies the RunReport JSON layout; bump it on
// any field removal or rename so downstream consumers can dispatch.
const ReportSchemaVersion = 3

// RunReport is the JSON-serializable per-stage breakdown of one
// pipeline run. core.Run attaches one to every Resolution; the server
// exposes it at /api/report and the CLIs write it with -report.
//
// Stage order is the execution order (preprocess, blocking, scoring,
// rank) and is stable across runs — golden tests key on it.
type RunReport struct {
	SchemaVersion int `json:"schema_version"`
	Records       int `json:"records"`
	Workers       int `json:"workers"`
	// TornBytes is the byte count of the torn tail a streaming run's
	// windowed reader skipped (store.WindowReader.TornBytes); zero for
	// batch runs and intact stores.
	TornBytes int64           `json:"torn_bytes,omitempty"`
	TotalNS   int64           `json:"total_ns"`
	Stages    []StageReport   `json:"stages"`
	Blocking  *BlockingReport `json:"blocking,omitempty"`
	Scoring   *ScoringReport  `json:"scoring,omitempty"`
	// Spans is the run's hierarchical trace (its own schema version,
	// trace.TreeSchemaVersion), present when the run was traced. The
	// flight recorder's summary rides inside it.
	Spans *trace.SpanTree `json:"spans,omitempty"`
}

// StageReport is one pipeline stage's wall clock and counters.
type StageReport struct {
	Name       string           `json:"name"`
	DurationNS int64            `json:"duration_ns"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// BlockingReport is the MFIBlocks stage breakdown. The Spill* fields
// describe the disk-spilled candidate accumulator when spilling was
// enabled (streaming runs): sorted runs written, entries and bytes
// spilled, and the distinct entries/bytes the scoring stage's k-way
// merge delivered back.
type BlockingReport struct {
	Iterations     []IterationReport `json:"iterations"`
	Blocks         int               `json:"blocks"`
	Pairs          int               `json:"pairs"`
	Covered        int               `json:"covered"`
	SpillRuns      int               `json:"spill_runs,omitempty"`
	SpilledEntries int64             `json:"spilled_entries,omitempty"`
	SpilledBytes   int64             `json:"spilled_bytes,omitempty"`
	MergedEntries  int64             `json:"merged_entries,omitempty"`
	MergedBytes    int64             `json:"merged_bytes,omitempty"`
	// Cache* describe the cross-iteration block materialization cache
	// (all zero when it is disabled). Cache state never changes blocks
	// or pairs — these are efficiency signals only.
	CacheHits      int64 `json:"cache_hits,omitempty"`
	CacheMisses    int64 `json:"cache_misses,omitempty"`
	CacheEvictions int64 `json:"cache_evictions,omitempty"`
	CacheEntries   int   `json:"cache_entries,omitempty"`
}

// IterationReport is one minsup level of the MFIBlocks loop.
type IterationReport struct {
	MinSup     int     `json:"minsup"`
	Active     int     `json:"active"` // uncovered records mined this iteration
	MFIs       int     `json:"mfis"`
	Blocks     int     `json:"blocks"`
	CSPruned   int     `json:"cs_pruned"` // dropped by the compact-set size cap
	NGPruned   int     `json:"ng_pruned"` // vetoed by the sparse-neighborhood cap
	NewPairs   int     `json:"new_pairs"`
	CoveredNow int     `json:"covered_now"`
	MinTh      float64 `json:"min_th"`
	DurationNS int64   `json:"duration_ns"`
}

// ScoringReport is the pair-scoring stage breakdown.
type ScoringReport struct {
	Candidates     int `json:"candidates"`
	SameSrcDropped int `json:"same_src_dropped"`
	ModelDropped   int `json:"model_dropped"`
	Matches        int `json:"matches"`
	Workers        int `json:"workers"`
	Chunks         int `json:"chunks"`
	// FeaturesEvaluated counts the pair features the model's tree walk
	// pulled, summed over every candidate it scored (0 without a model).
	// Deterministic: it depends on the candidates and the model alone.
	FeaturesEvaluated int64 `json:"features_evaluated"`
	ProfilesBuilt     int   `json:"profiles_built"`
	ProfileHits       int64 `json:"profile_hits"`
	ProfileMisses     int64 `json:"profile_misses"`
	// InternedStrings counts the distinct q-grams and lowered name
	// values the extractor's profiles interned.
	InternedStrings int `json:"interned_strings"`
	// Scores is the distribution of ranked-match scores (ScoreBuckets
	// layout). Omitted when no pairs were scored.
	Scores *HistogramSnapshot `json:"scores,omitempty"`
}

// AddStage appends a stage in execution order.
func (r *RunReport) AddStage(name string, d time.Duration, counters map[string]int64) {
	if r == nil {
		return
	}
	r.Stages = append(r.Stages, StageReport{Name: name, DurationNS: d.Nanoseconds(), Counters: counters})
	r.TotalNS += d.Nanoseconds()
}

// Stage returns the named stage, or nil.
func (r *RunReport) Stage(name string) *StageReport {
	if r == nil {
		return nil
	}
	for i := range r.Stages {
		if r.Stages[i].Name == name {
			return &r.Stages[i]
		}
	}
	return nil
}

// StripTimings zeroes every duration in place — golden tests compare
// report shape and counts, never wall clock.
func (r *RunReport) StripTimings() {
	if r == nil {
		return
	}
	r.TotalNS = 0
	for i := range r.Stages {
		r.Stages[i].DurationNS = 0
	}
	if r.Blocking != nil {
		for i := range r.Blocking.Iterations {
			r.Blocking.Iterations[i].DurationNS = 0
		}
	}
	r.Spans.StripTimings()
}

// WriteJSON writes the report, indented, to w.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (the CLIs' -report flag).
func (r *RunReport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
