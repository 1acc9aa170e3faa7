// Command yvbench regenerates the paper's tables and figures.
//
// Usage:
//
//	yvbench [-scale quick|full] [-list] [-workers n] [-report out.json] [-v] [exp ...]
//
// With no experiment ids, every experiment runs in paper order. Use -list
// to enumerate the available ids. -report writes the accumulated
// telemetry registry (every counter, gauge, and histogram the runs
// produced) as JSON when the experiments finish. Performance is measured
// by the repo benchmark (benchmark/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "dataset scale: quick or full")
	list := flag.Bool("list", false, "list experiment ids and exit")
	workers := flag.Int("workers", 0, "blocking and pair-scoring workers for pipeline experiments (0 = GOMAXPROCS, 1 = serial)")
	reportPath := flag.String("report", "", "write the accumulated telemetry registry (JSON) to this file")
	verbose := flag.Bool("v", false, "debug logging (per-stage and per-iteration telemetry)")
	flag.Parse()
	telemetry.SetVerbose(*verbose)

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "yvbench: -workers must be >= 0, got %d\n", *workers)
		os.Exit(2)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "yvbench: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	var selected []experiments.Experiment
	if flag.NArg() == 0 {
		selected = experiments.All()
	} else {
		for _, id := range flag.Args() {
			e := experiments.ByID(id)
			if e == nil {
				fmt.Fprintf(os.Stderr, "yvbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, *e)
		}
	}

	runner := experiments.NewRunner(scale)
	runner.ScoringWorkers = *workers
	for _, e := range selected {
		t0 := time.Now()
		if err := e.Run(runner, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "yvbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("-- %s done in %v --\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}

	if *reportPath != "" {
		if err := telemetry.Default().WriteJSONFile(*reportPath); err != nil {
			fmt.Fprintf(os.Stderr, "yvbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry report written to %s\n", *reportPath)
	}
}
