// Command yver runs the uncertain entity resolution pipeline over a
// records file produced by yvgen (or any records.jsonl in the same
// format) and emits the ranked matches and, optionally, the entity
// clusters at a chosen certainty.
//
// Usage:
//
//	yver -in records.jsonl|records.yvst [-ng 3.5] [-maxminsup 5]
//	     [-certainty 0.3] [-samesrc] [-top 20] [-clusters] [-first name]
//	     [-last name] [-model model.json] [-report out.json] [-workers n]
//	     [-spill-pairs n] [-trace-out t.json] [-progress]
//
// The input is a .yvst store or, under any other name, JSONL; either
// streams into the bounded-memory pipeline: records are encoded as they
// arrive and dropped unless a flag (model, search, clusters) needs their
// values. A store's torn tail (an interrupted copy) is skipped with a
// note on stderr; the file is never written.
//
// -workers bounds the blocking and scoring goroutines and -spill-pairs
// caps the candidate pairs held in memory (0 = spill.DefaultCap, 4Mi;
// past the cap they merge through sorted disk runs); neither changes the
// ranked output by a bit.
// -trace-out records the run's span hierarchy and flight-recorder series
// as Chrome trace-event JSON (load in Perfetto); -progress prints a live
// status line (stage, rate, ETA) to stderr. -report writes the run's
// RunReport (stage timings, blocking iterations, scoring counters) as
// JSON; the pipeline logs nothing.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/adtree"
	"repro/internal/core"
	"repro/internal/gazetteer"
	"repro/internal/store"
	"repro/internal/telemetry/trace"
)

func main() {
	in := flag.String("in", "", "input records, JSONL or a .yvst store (required)")
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
	reportPath := flag.String("report", "", "write the run's telemetry report (JSON) to this file")
	traceOut := flag.String("trace-out", "", "write the run's trace (Chrome trace-event JSON, Perfetto-loadable) to this file; enables tracing and the flight recorder")
	progress := flag.Bool("progress", false, "print live progress (stage, records/sec, ETA) to stderr")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "yver: -in is required")
		os.Exit(2)
	}

	opts := core.NewOptions(gazetteer.Builtin(0))
	opts.Blocking.NG = *ng
	opts.Blocking.MaxMinSup = *maxMinSup
	opts.Blocking.SpillPairs = *spillPairs
	opts.SameSrc = *sameSrc
	opts.Workers = *workers
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
	}
	opts.Classify = opts.Model != nil
	// Validate at the flag boundary: a bad -workers or NaN parameter
	// should fail here, not deep inside the scoring pool.
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "yver: %v\n", err)
		os.Exit(2)
	}
	if *top < 0 {
		fmt.Fprintf(os.Stderr, "yver: -top must be >= 0, got %d\n", *top)
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

	src, err := store.Open(*in)
	if err != nil {
		fatal(err)
	}
	// Skeleton records suffice for ranked matches and clustering; model
	// scoring, search, and narratives compare record values, so any flag
	// that needs them keeps the full records in memory.
	retain := opts.Model != nil || *first != "" || *last != "" || *clusters
	res, err := core.RunStream(core.StreamOptions{Options: opts, RetainRecords: retain}, src)
	src.Close()
	opts.Progress.Stop()
	if err != nil {
		fatal(err)
	}
	if src.TornBytes() > 0 {
		fmt.Fprintf(os.Stderr, "yver: skipped torn tail in %s (%d bytes)\n", *in, src.TornBytes())
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
		res.Report.Records, len(res.Matches), *certainty, len(accepted), res.Report.Scoring.SameSrcDropped)
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "yver: %v\n", err)
	os.Exit(1)
}
