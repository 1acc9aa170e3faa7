// Command benchmark is the repository's measure of record: five
// workloads, six end-to-end metrics, and a staged (traced) run that
// attributes each workload's time to the repo's layers from outside.
// README.md in this directory says how to run it and why each workload
// and metric is there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/telemetry"
)

// procs pins every run to the sandbox's two cores: GOMAXPROCS, pipeline
// workers, shards and closed-loop clients.
const procs = 2

// registry keeps the program's metrics out of telemetry.Default(), and
// is where the serve checks read the resilience counters.
var registry = telemetry.NewRegistry()

func main() {
	start := time.Now()
	runtime.GOMAXPROCS(procs)
	telemetry.Silence()

	workload := flag.String("workload", "", "workload to run: resolve_italy, stream_random, rescore_random, serve_hot, serve_sweep")
	seed := flag.Int64("seed", 0, "workload seed: the BookIDs of the corpus and the sessions drawn; 0 leaves the corpus as generated")
	seconds := flag.Float64("seconds", nominalSeconds, "scales the number of operations timed; the counts are sized for the default")
	traceFlag := flag.Int("trace", 0, "1 = the staged (traced) run: per-layer metrics (same as -staged)")
	staged := flag.Bool("staged", false, "run the workload once in pipeline order with spans around every layer call")
	ops := flag.Int("ops", 0, "time exactly this many operations (per client) whatever -seconds says")
	persons := flag.Int("persons", 0, "override the corpus size (persons); 0 is the measured size")
	out := flag.String("out", "", "append the run's result to this JSON file (input of -compare)")
	outDir := flag.String("outdir", "benchmark/out", "directory for scratch files, traces and layer reports")
	compare := flag.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of three runs of every workload and compare them against the bounds")
	fingerprints := flag.Bool("fingerprints", false, "print the fingerprints of the measured corpora and exit")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *selfcheck:
		err = selfCheck(*seed, *seconds, *outDir)
	case *fingerprints:
		err = printFingerprints()
	default:
		err = runWorkload(start, *workload, *staged || *traceFlag == 1, runConfig{
			in: inputs{seed: *seed, persons: *persons}, seconds: *seconds, ops: *ops, outDir: *outDir,
		}, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func runWorkload(start time.Time, name string, traced bool, cfg runConfig, out string) error {
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	cfg.wl = wl
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	var r *runResult
	defs := endToEnd
	if traced {
		defs = perLayer
		r, err = stagedRun(cfg)
	} else {
		r, err = measure(cfg, start)
	}
	if err != nil {
		return err
	}
	printResult(r, defs)
	if out != "" {
		if err := appendResult(out, r); err != nil {
			return err
		}
	}
	// The last line of standard output is the result the driver parses.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printResult lists every metric by name with its unit, in table order.
func printResult(r *runResult, defs []metricDef) {
	fmt.Printf("workload %s  seed %d  ops attempted %d  failed %d\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		fmt.Printf("  %-34s %14.4f %s", d.Name, v.Value, v.Unit)
		if d.Name == "op_ms" {
			fmt.Printf("   (median of %d ops, quartiles %.4f–%.4f)", r.Attempted, r.OpQuartilesMS[0], r.OpQuartilesMS[1])
		}
		fmt.Println()
	}
	for _, n := range r.Notes {
		fmt.Println(" ", n)
	}
}

// resultFile is what -out accumulates and -compare reads: every run of
// one commit, so medians and spreads can be taken per workload.
type resultFile struct {
	Runs []*runResult `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendResult(path string, r *runResult) error {
	f, err := readResults(path)
	if os.IsNotExist(err) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, r)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printFingerprints prints what fingerprints.json pins: the measured
// corpora and the smoke test's small ones, under checkFingerprint's keys.
func printFingerprints() error {
	pins := map[string]fingerprint{}
	for _, persons := range []int{0, smokePersons} {
		italy, err := italyCorpus(persons)
		if err != nil {
			return err
		}
		n := randomPersons
		if persons > 0 {
			n = persons
		}
		random, err := randomCorpus(n)
		if err != nil {
			return err
		}
		for _, c := range []*corpus{italy, random} {
			if pins[fingerprintKey(c.name, persons)], err = c.fingerprint(); err != nil {
				return err
			}
		}
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
