// Command yvserve resolves a records file and serves the uncertain
// resolution over HTTP — the paper's Web-query interface with the
// certainty slider.
//
// Usage:
//
//	yvserve -in records.jsonl [-model model.json] [-addr :8080]
//	        [-max-inflight N] [-request-timeout D] [-drain D] [-pprof]
//	        [-trace] [-trace-out t.json] [-v]
//
// Then:
//
//	curl 'localhost:8080/api/search?last=Foa&certainty=0.3'
//	curl 'localhost:8080/api/entity?book=1000042&certainty=0.3'
//	curl 'localhost:8080/api/narrative?book=1000042'
//	curl 'localhost:8080/api/stats?certainty=0.5'
//	curl 'localhost:8080/api/report'
//	curl 'localhost:8080/api/trace'
//	curl 'localhost:8080/metrics'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/adtree"
	"repro/internal/core"
	"repro/internal/gazetteer"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

func main() {
	in := flag.String("in", "", "input records (JSONL or .yvst, required)")
	modelPath := flag.String("model", "", "trained ADTree model (enables classification)")
	addr := flag.String("addr", ":8080", "listen address")
	ng := flag.Float64("ng", 3.5, "neighborhood growth parameter")
	workers := flag.Int("workers", 0, "blocking and pair-scoring workers (0 = GOMAXPROCS, 1 = serial)")
	spillPairs := flag.Int("spill-pairs", 0, "hold at most this many candidate pairs in memory during resolution, spilling the rest to sorted disk runs (0 = 4Mi)")
	maxInflight := flag.Int("max-inflight", 256, "max concurrent requests before shedding with 503 (0 = unlimited)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline, 503 on expiry (0 = none)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline on SIGINT/SIGTERM")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	traceFlag := flag.Bool("trace", false, "trace the resolution run and serve it at /api/trace")
	traceOut := flag.String("trace-out", "", "also write the resolution's trace (Chrome trace-event JSON) to this file; implies -trace")
	verbose := flag.Bool("v", false, "debug logging (one line per HTTP request)")
	flag.Parse()
	telemetry.SetVerbose(*verbose)

	if *in == "" {
		fmt.Fprintln(os.Stderr, "yvserve: -in is required")
		os.Exit(2)
	}
	records, err := loadRecords(*in)
	if err != nil {
		fatal(err)
	}
	coll, err := record.NewCollection(records)
	if err != nil {
		fatal(err)
	}

	bc := mfiblocks.NewConfig()
	bc.NG = *ng
	bc.SpillPairs = *spillPairs
	opts := core.Options{
		Blocking:   bc,
		Geo:        gazetteer.Builtin(0),
		Preprocess: true,
		SameSrc:    true,
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
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "yvserve: %v\n", err)
		os.Exit(2)
	}

	if *traceFlag || *traceOut != "" {
		opts.Trace = trace.New()
		opts.Trace.StartSampler(0)
	}

	fmt.Printf("resolving %d records...\n", coll.Len())
	res, err := core.Run(opts, coll)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("resolved: %d ranked matches\n", len(res.Matches))
	if opts.Trace != nil {
		// The flight recorder covers the resolution, not the serving
		// phase; stop it before export so /api/trace is stable.
		opts.Trace.Sampler().Stop()
	}
	if *traceOut != "" {
		if err := opts.Trace.WriteChromeFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (%d spans)\n", *traceOut, opts.Trace.Len())
	}

	srv := server.New(res, coll)
	srv.MaxInflight = *maxInflight
	srv.RequestTimeout = *requestTimeout
	if *pprofFlag {
		srv.EnablePprof()
		fmt.Println("pprof enabled at /debug/pprof/")
	}

	// A bare ListenAndServe has no timeouts: one slow-reading client can
	// hold a connection (and its inflight slot) forever. WriteTimeout
	// sits above the per-request deadline so the middleware's 503 is
	// always written before the connection is torn down.
	writeTimeout := 2 * time.Minute
	if *requestTimeout > 0 {
		writeTimeout = *requestTimeout + 10*time.Second
	}
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGINT/SIGTERM drain in-flight requests up to the -drain deadline,
	// then the listener closes; a second signal kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// "serving on" is printed once it is true: the port is bound and the
	// query index is built, so no request pays for it inside its deadline.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	res.EntityCounts(0)
	fmt.Printf("serving on %s (try /api/stats, /metrics, /api/report)\n", *addr)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		stop() // restore default handling: a second signal is immediate
		fmt.Printf("shutting down (draining up to %s)...\n", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "yvserve: drain incomplete: %v\n", err)
			hs.Close()
			os.Exit(1)
		}
		fmt.Println("drained cleanly")
	}
}

func loadRecords(path string) ([]*record.Record, error) {
	if strings.HasSuffix(path, ".yvst") {
		// CLIs recover by default: a torn tail from a killed writer is
		// truncated to the last whole frame rather than refusing to serve.
		s, err := store.Open(path, store.Recover)
		if err != nil {
			return nil, err
		}
		defer s.Close()
		if s.RepairedBytes > 0 {
			fmt.Fprintf(os.Stderr, "yvserve: repaired torn tail in %s (%d bytes truncated)\n", path, s.RepairedBytes)
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
	fmt.Fprintf(os.Stderr, "yvserve: %v\n", err)
	os.Exit(1)
}
