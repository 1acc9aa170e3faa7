// Command yver runs the uncertain entity resolution pipeline over a
// records file produced by yvgen (or any records.jsonl in the same
// format) and emits the ranked matches and, optionally, the entity
// clusters at a chosen certainty.
//
// Usage:
//
//	yver -in records.jsonl [-ng 3.5] [-maxminsup 5] [-certainty 0.3]
//	     [-samesrc] [-top 20] [-clusters] [-first name] [-last name]
//	     [-model model.json] [-report out.json] [-workers n]
//	     [-spill-pairs n] [-stream] [-trace-out t.json] [-progress]
//
// -workers bounds the blocking and scoring goroutines and -spill-pairs
// caps the candidate pairs held in memory (0 = spill.DefaultCap, 4Mi;
// past the cap they merge through sorted disk runs); neither changes the
// ranked output by a bit.
// -stream reads a .yvst store through the windowed reader and resolves
// it with the bounded-memory streaming pipeline — records are encoded as
// they arrive and dropped unless a flag (model, search, clusters) needs
// their values. -trace-out records the run's span hierarchy and flight-
// recorder series as Chrome trace-event JSON (load in Perfetto);
// -progress prints a live status line (stage, rate, ETA) to
// stderr. -report writes the run's RunReport (stage timings, blocking
// iterations, scoring counters) as JSON; the pipeline logs nothing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/adtree"
	"repro/internal/core"
	"repro/internal/gazetteer"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/store"
	"repro/internal/telemetry/trace"
)

func main() {
	in := flag.String("in", "", "input records.jsonl (required)")
	ng := flag.Float64("ng", 3.5, "neighborhood growth parameter")
	maxMinSup := flag.Int("maxminsup", 5, "initial minimum support")
	certainty := flag.Float64("certainty", 0.0, "certainty threshold for output")
	sameSrc := flag.Bool("samesrc", true, "discard same-source candidate pairs")
	top := flag.Int("top", 20, "ranked matches to print")
	clusters := flag.Bool("clusters", false, "print entity clusters at the certainty")
	first := flag.String("first", "", "search: first name (matched through equivalence classes)")
	last := flag.String("last", "", "search: last name")
	modelPath := flag.String("model", "", "trained ADTree model (from yvtrain); enables classification")
	workers := flag.Int("workers", 0, "blocking and pair-scoring workers (0 = GOMAXPROCS, 1 = serial)")
	spillPairs := flag.Int("spill-pairs", 0, "hold at most this many candidate pairs in memory, spilling the rest to sorted disk runs (0 = 4Mi)")
	stream := flag.Bool("stream", false, "stream a .yvst store through the bounded-memory pipeline instead of loading the whole corpus")
	reportPath := flag.String("report", "", "write the run's telemetry report (JSON) to this file")
	traceOut := flag.String("trace-out", "", "write the run's trace (Chrome trace-event JSON, Perfetto-loadable) to this file; enables tracing and the flight recorder")
	progress := flag.Bool("progress", false, "print live progress (stage, records/sec, ETA) to stderr")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "yver: -in is required")
		os.Exit(2)
	}

	bc := mfiblocks.NewConfig()
	bc.NG = *ng
	bc.MaxMinSup = *maxMinSup
	bc.SpillPairs = *spillPairs
	opts := core.Options{
		Blocking:   bc,
		Geo:        gazetteer.Builtin(0),
		Preprocess: true,
		SameSrc:    *sameSrc,
		Workers:    *workers,
	}
	if *modelPath != "" {
		mf, err := os.Open(*modelPath)
		if err != nil {
			fatal(err)
		}
		model, err := adtree.Load(mf)
		mf.Close()
		if err != nil {
			fatal(fmt.Errorf("-model %s: %w", *modelPath, err))
		}
		opts.Model = model
		opts.Classify = true
	}
	// Validate at the flag boundary: a bad -workers or NaN parameter
	// should fail here, not deep inside the scoring pool.
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "yver: %v\n", err)
		os.Exit(2)
	}

	if *traceOut != "" {
		opts.Trace = trace.New()
		opts.Trace.StartSampler(0)
	}
	if *progress {
		opts.Progress = &trace.Progress{W: os.Stderr}
		opts.Progress.Start()
	}

	var res *core.Resolution
	var err error
	if *stream {
		// Skeleton records suffice for ranked matches and clustering;
		// model scoring, search, and narratives compare record values, so
		// any flag that needs them keeps the full records in memory.
		retain := opts.Model != nil || *first != "" || *last != "" || *clusters
		res, err = runStream(*in, opts, retain)
	} else {
		var records []*record.Record
		records, err = loadRecords(*in)
		if err != nil {
			fatal(err)
		}
		var coll *record.Collection
		coll, err = record.NewCollection(records)
		if err != nil {
			fatal(err)
		}
		res, err = core.Run(opts, coll)
	}
	opts.Progress.Stop()
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		// Stop the flight recorder before exporting so its final sample
		// (and the summary in the report) covers the whole run.
		opts.Trace.Sampler().Stop()
		if err := opts.Trace.WriteChromeFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (%d spans)\n", *traceOut, opts.Trace.Len())
	}
	if *reportPath != "" {
		if err := res.Report.WriteFile(*reportPath); err != nil {
			fatal(err)
		}
		fmt.Printf("telemetry report written to %s\n", *reportPath)
	}

	accepted := res.AtCertainty(*certainty)
	fmt.Printf("records=%d candidates=%d accepted@%.2f=%d (same-source dropped %d)\n",
		res.Report.Records, len(res.Matches), *certainty, len(accepted), res.DiscardedSameSrc)
	n := *top
	if n > len(accepted) {
		n = len(accepted)
	}
	for _, m := range accepted[:n] {
		fmt.Printf("  %d <-> %d  score=%.3f\n", m.Pair.A, m.Pair.B, m.Score)
	}

	if *first != "" || *last != "" {
		hits := res.Search(core.Query{First: *first, Last: *last, Certainty: *certainty})
		fmt.Printf("search %q %q @%.2f: %d entities\n", *first, *last, *certainty, len(hits))
		for i, e := range hits {
			if i >= *top {
				break
			}
			fmt.Printf("  %v: %s\n", e.Reports, e.Narrative())
		}
	}

	if *clusters {
		ents := res.Clusters(*certainty)
		multi := 0
		for _, e := range ents {
			if len(e.Reports) > 1 {
				multi++
			}
		}
		fmt.Printf("entities=%d (%d with multiple reports)\n", len(ents), multi)
		shown := 0
		for _, e := range ents {
			if len(e.Reports) < 2 {
				continue
			}
			fmt.Printf("  %v: %s\n", e.Reports, e.Narrative())
			shown++
			if shown >= 5 {
				break
			}
		}
	}
}

// runStream resolves a .yvst store through the windowed reader and the
// streaming pipeline: records are encoded and dropped (or retained, when
// a flag needs their values) as they arrive, and candidate pairs spill
// to disk past the configured cap.
func runStream(path string, opts core.Options, retain bool) (*core.Resolution, error) {
	if !strings.HasSuffix(path, ".yvst") {
		return nil, fmt.Errorf("-stream requires a .yvst store, got %s", path)
	}
	src, err := store.OpenWindowReader(path, store.Recover)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	res, err := core.RunStream(core.StreamOptions{Options: opts, RetainRecords: retain}, src)
	if err != nil {
		return nil, err
	}
	if src.TornBytes() > 0 {
		fmt.Fprintf(os.Stderr, "yver: skipped torn tail in %s (%d bytes)\n", path, src.TornBytes())
	}
	return res, nil
}

// loadRecords reads JSONL or, for .yvst files, the binary store format.
// Store files open with recovery: a torn tail from a killed writer is
// truncated to the last whole frame instead of aborting the run.
func loadRecords(path string) ([]*record.Record, error) {
	if strings.HasSuffix(path, ".yvst") {
		s, err := store.Open(path, store.Recover)
		if err != nil {
			return nil, err
		}
		defer s.Close()
		if s.RepairedBytes > 0 {
			fmt.Fprintf(os.Stderr, "yver: repaired torn tail in %s (%d bytes truncated)\n", path, s.RepairedBytes)
		}
		return s.All()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return record.ReadJSONL(f)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "yver: %v\n", err)
	os.Exit(1)
}
