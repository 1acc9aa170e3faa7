package mfiblocks

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/record"
)

// workerCollection builds a noisy collection with partial duplicates so
// the run exercises several minsup iterations and contested blocks.
func workerCollection(t *testing.T) *record.Collection {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	firsts := []string{"Abram", "Chana", "Dov", "Ester", "Gitel", "Lejb", "Mirla", "Szmul"}
	lasts := []string{"Goldberg", "Kac", "Lewin", "Rozen", "Szwarc", "Wajs"}
	var records []*record.Record
	id := int64(1)
	addVariant := func(first, last, year string, src string) {
		r := &record.Record{BookID: id, Source: src, Kind: record.List}
		r.Add(record.FirstName, first)
		r.Add(record.LastName, last)
		r.Add(record.BirthYear, year)
		if rng.Intn(2) == 0 {
			r.Add(record.FatherName, firsts[rng.Intn(len(firsts))])
		}
		records = append(records, r)
		id++
	}
	for g := 0; g < 40; g++ {
		first := firsts[rng.Intn(len(firsts))]
		last := lasts[rng.Intn(len(lasts))]
		year := fmt.Sprintf("19%02d", rng.Intn(30))
		for dup := 0; dup < 2+rng.Intn(3); dup++ {
			addVariant(first, last, year, fmt.Sprintf("list-%d", 1+dup%3))
		}
	}
	coll, err := record.NewCollection(records)
	if err != nil {
		t.Fatal(err)
	}
	return coll
}

// TestRunWorkerCountInvariance is the acceptance check from the blocking
// engine rework: Result.Pairs, PairScores, Covered, and the per-iteration
// stats must be bit-identical across every Workers setting.
func TestRunWorkerCountInvariance(t *testing.T) {
	coll := workerCollection(t)
	cfg := NewConfig()
	cfg.PruneFraction = 0
	cfg.Workers = 1
	want, err := Run(cfg, coll)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) == 0 {
		t.Fatal("fixture produced no candidate pairs")
	}
	for _, workers := range []int{2, 8} {
		cfg := NewConfig()
		cfg.PruneFraction = 0
		cfg.Workers = workers
		got, err := Run(cfg, coll)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Pairs, got.Pairs) {
			t.Fatalf("workers=%d: Pairs diverge from serial run (%d vs %d)",
				workers, len(got.Pairs), len(want.Pairs))
		}
		if !reflect.DeepEqual(want.PairScores, got.PairScores) {
			t.Fatalf("workers=%d: PairScores diverge", workers)
		}
		if !reflect.DeepEqual(want.Covered, got.Covered) {
			t.Fatalf("workers=%d: Covered diverges", workers)
		}
		for i := range want.Iterations {
			w, g := want.Iterations[i], got.Iterations[i]
			w.Elapsed, g.Elapsed = 0, 0
			if w != g {
				t.Fatalf("workers=%d iteration %d: stats %+v, want %+v", workers, i, g, w)
			}
		}
	}
}

// TestRunParallelRunTwice: a parallel run is reproducible against itself,
// mirroring TestRunDeterministicUnderTies for the Workers>1 paths.
func TestRunParallelRunTwice(t *testing.T) {
	coll := workerCollection(t)
	cfg := NewConfig()
	cfg.PruneFraction = 0
	cfg.Workers = 8
	first, err := Run(cfg, coll)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := Run(cfg, coll)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Pairs, again.Pairs) {
			t.Fatalf("run %d: parallel Pairs not reproducible", run)
		}
		if !reflect.DeepEqual(first.PairScores, again.PairScores) {
			t.Fatalf("run %d: parallel PairScores not reproducible", run)
		}
	}
}

// TestRunShardedBitIdentical is the engine-level half of the fan-out
// contract on a generated corpus: for every worker count, Blocks, Pairs,
// PairScores, PairBlocks, Covered, and the per-iteration statistics are
// bit-identical to the serial run — not merely set-equal.
func TestRunShardedBitIdentical(t *testing.T) {
	g := smallItaly(t, 400)
	base := NewConfig()
	base.Workers = 1
	want, err := Run(base, g.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) == 0 {
		t.Fatal("baseline produced no pairs")
	}
	for _, workers := range []int{1, 2, 8} {
		cfg := NewConfig()
		cfg.Workers = workers
		got, err := Run(cfg, g.Collection)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertSameBlocking(t, fmt.Sprintf("workers=%d", workers), want, got)
	}
}

// TestRunShardedDeterministicUnderTies reruns the tie-heavy fixture on
// eight workers: score collisions between blocks different workers
// materialized must still resolve through the canonical block order,
// identically to the serial run and on every rerun.
func TestRunShardedDeterministicUnderTies(t *testing.T) {
	coll := tieHeavyCollection(t)
	cfg := NewConfig()
	cfg.PruneFraction = 0
	cfg.Workers = 8

	first, err := Run(cfg, coll)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Pairs) == 0 {
		t.Fatal("tie-heavy collection produced no pairs")
	}
	serial := cfg
	serial.Workers = 1
	base, err := Run(serial, coll)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Pairs, first.Pairs) {
		t.Fatal("parallel tie-heavy Pairs diverge from serial")
	}
	for run := 0; run < 3; run++ {
		again, err := Run(cfg, coll)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Pairs, again.Pairs) {
			t.Fatalf("run %d: parallel Pairs not reproducible", run)
		}
		if !reflect.DeepEqual(first.PairScores, again.PairScores) {
			t.Fatalf("run %d: parallel PairScores not reproducible", run)
		}
	}
}
