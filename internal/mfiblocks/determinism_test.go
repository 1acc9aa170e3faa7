package mfiblocks

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestEnforceNGOrderInvariant feeds the same tied blocks in shuffled
// orders: the total-order sort must admit an identical sequence every
// time, regardless of input permutation.
func TestEnforceNGOrderInvariant(t *testing.T) {
	cfg := NewConfig()
	cfg.NG = 1 // tight budget so admission order decides survival

	// Ten blocks tied on (score, size), distinguishable only by members
	// and key; overlapping membership makes the greedy budget contested.
	mkBlocks := func() []*Block {
		var blocks []*Block
		for i := 0; i < 10; i++ {
			blocks = append(blocks, &Block{
				Key:     []int{i, i + 100},
				Members: []int{i, i + 1, i + 2},
				Score:   0.75,
				MinSup:  3,
			})
		}
		return blocks
	}

	baseline := mkBlocks()
	spent := make([]int, 16)
	wantKept, wantTh, wantPruned := enforceNG(&cfg, baseline, spent)
	if len(wantKept) == 0 || wantPruned == 0 {
		t.Fatalf("fixture not contested: kept=%d pruned=%d", len(wantKept), wantPruned)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		blocks := mkBlocks()
		rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		spent := make([]int, 16)
		kept, th, pruned := enforceNG(&cfg, blocks, spent)
		if th != wantTh || pruned != wantPruned || len(kept) != len(wantKept) {
			t.Fatalf("trial %d: (kept=%d th=%v pruned=%d), want (%d, %v, %d)",
				trial, len(kept), th, pruned, len(wantKept), wantTh, wantPruned)
		}
		for i := range kept {
			if !reflect.DeepEqual(kept[i].Key, wantKept[i].Key) {
				t.Fatalf("trial %d: kept[%d].Key = %v, want %v", trial, i, kept[i].Key, wantKept[i].Key)
			}
		}
	}
}
