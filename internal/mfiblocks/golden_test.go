package mfiblocks

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/blocking.golden from the current output")

// TestBlockingGolden pins Run's whole output on two small corpora — the
// single-community ItalySet shape and the six-community RandomSet shape —
// to digests committed in testdata/blocking.golden: the ordered candidate
// pairs with their scores, every kept block, and every IterationStats
// field but Elapsed. A kernel change under the miner or the materializer
// must leave all of it bit-identical. Regenerate with
// go test -run TestBlockingGolden -update ./internal/mfiblocks/.
func TestBlockingGolden(t *testing.T) {
	italy := dataset.ItalyConfig()
	italy.Persons = 300
	cases := []struct {
		name string
		cfg  dataset.Config
	}{
		{"italy-300", italy},
		{"random-2000", dataset.RandomSetConfig(2000)},
	}
	var b strings.Builder
	for _, c := range cases {
		g, err := dataset.Generate(c.cfg)
		if err != nil {
			t.Fatalf("%s: Generate: %v", c.name, err)
		}
		cfg := NewConfig()
		cfg.Workers = 2
		res, err := Run(cfg, g.Collection)
		if err != nil {
			t.Fatalf("%s: Run: %v", c.name, err)
		}
		if res.Spill != nil {
			t.Fatalf("%s: candidates spilled; the digest covers resident pairs only", c.name)
		}
		writeBlockingDigest(&b, c.name, res)
	}
	path := filepath.Join("testdata", "blocking.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("blocking output differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// writeBlockingDigest appends one corpus's section of the golden file.
func writeBlockingDigest(b *strings.Builder, name string, res *Result) {
	var buf []byte
	u64 := func(h interface{ Write([]byte) (int, error) }, v uint64) {
		buf = binary.LittleEndian.AppendUint64(buf[:0], v)
		h.Write(buf)
	}
	pairs := sha256.New()
	for _, p := range res.Pairs {
		u64(pairs, uint64(p.A))
		u64(pairs, uint64(p.B))
		u64(pairs, math.Float64bits(res.PairScores[p]))
	}
	blocks := sha256.New()
	for _, blk := range res.Blocks {
		u64(blocks, uint64(len(blk.Key)))
		for _, it := range blk.Key {
			u64(blocks, uint64(it))
		}
		u64(blocks, uint64(len(blk.Members)))
		for _, m := range blk.Members {
			u64(blocks, uint64(m))
		}
		u64(blocks, math.Float64bits(blk.Score))
		u64(blocks, uint64(blk.MinSup))
	}
	fmt.Fprintf(b, "%s pairs=%d blocks=%d\n", name, len(res.Pairs), len(res.Blocks))
	fmt.Fprintf(b, "%s pairs_sha256=%x\n", name, pairs.Sum(nil))
	fmt.Fprintf(b, "%s blocks_sha256=%x\n", name, blocks.Sum(nil))
	for _, it := range res.Iterations {
		fmt.Fprintf(b, "%s minsup=%d active=%d mfis=%d blocks=%d cs_pruned=%d ng_pruned=%d new_pairs=%d covered_now=%d min_th=%x\n",
			name, it.MinSup, it.Active, it.MFIs, it.Blocks, it.CSPruned, it.NGPruned, it.NewPairs, it.CoveredNow, math.Float64bits(it.MinTh))
	}
}
