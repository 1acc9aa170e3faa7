package fpgrowth

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// equivTxns builds a randomized transaction database with enough item
// overlap that maximal sets are contested across branches.
func equivTxns(seed int64, n, universe, maxLen int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	txns := make([][]int, n)
	for i := range txns {
		seen := map[int]bool{}
		for k := 0; k < 2+rng.Intn(maxLen); k++ {
			seen[int(float64(universe)*rng.Float64()*rng.Float64())] = true
		}
		for it := range seen {
			txns[i] = append(txns[i], it)
		}
		sort.Ints(txns[i])
	}
	return txns
}

// TestMineMaximalWorkerEquivalence is the blocking engine's core contract:
// the mined MFI list — items, supports, and slice order — is bit-identical
// between the serial path and every fan-out width, across seeds and minsup
// levels.
func TestMineMaximalWorkerEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		txns := equivTxns(seed, 600, 300, 12)
		for _, minsup := range []int{2, 3, 5} {
			serial := NewMiner(txns)
			serial.Workers = 1
			want := serial.MineMaximal(minsup, nil)
			for _, workers := range []int{2, 8} {
				m := NewMiner(txns)
				m.Workers = workers
				got := m.MineMaximal(minsup, nil)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed=%d minsup=%d workers=%d: MFIs diverge from serial (%d vs %d sets)",
						seed, minsup, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestMineMaximalActiveSubsetEquivalence repeats the worker equivalence
// over active-subset mining — the shape mfiblocks.Run drives per minsup
// iteration — including the incremental-frequency entry point.
func TestMineMaximalActiveSubsetEquivalence(t *testing.T) {
	txns := equivTxns(5, 400, 200, 10)
	rng := rand.New(rand.NewSource(99))
	active := make([]int, 0, len(txns))
	for i := range txns {
		if rng.Intn(3) != 0 {
			active = append(active, i)
		}
	}
	freq := make([]int, 201)
	for _, i := range active {
		for _, it := range txns[i] {
			freq[it]++
		}
	}
	for _, minsup := range []int{2, 4} {
		serial := NewMiner(txns)
		serial.Workers = 1
		want := serial.MineMaximal(minsup, active)
		for _, workers := range []int{2, 8} {
			m := NewMiner(txns)
			m.Workers = workers
			if got := m.MineMaximal(minsup, active); !reflect.DeepEqual(want, got) {
				t.Fatalf("minsup=%d workers=%d: active-subset MFIs diverge", minsup, workers)
			}
			if got := m.MineMaximalFreq(minsup, active, freq); !reflect.DeepEqual(want, got) {
				t.Fatalf("minsup=%d workers=%d: MineMaximalFreq diverges from recounted MineMaximal", minsup, workers)
			}
		}
	}
}

// TestMineMaximalRunTwiceDeterminism: the same miner must return the same
// slice on repeated parallel calls — no scheduling leak into the output.
func TestMineMaximalRunTwiceDeterminism(t *testing.T) {
	txns := equivTxns(3, 800, 400, 14)
	m := NewMiner(txns)
	m.Workers = 8
	first := m.MineMaximal(3, nil)
	if len(first) == 0 {
		t.Fatal("fixture mined no MFIs")
	}
	for run := 0; run < 3; run++ {
		if again := m.MineMaximal(3, nil); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d: parallel MineMaximal not reproducible", run)
		}
	}
}

// TestMineMaximalParallelMatchesBruteForce anchors the parallel miner to
// ground truth on small instances: FilterMaximal over the brute-force
// frequent sets equals the parallel MFI output exactly — on thirty small
// random databases, then on one dense one across Workers.
func TestMineMaximalParallelMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		nTxn := 3 + rng.Intn(10)
		nItems := 3 + rng.Intn(7)
		txns := make([][]int, nTxn)
		for i := range txns {
			seen := map[int]bool{}
			for k := 0; k < 1+rng.Intn(nItems); k++ {
				seen[rng.Intn(nItems)] = true
			}
			for it := range seen {
				txns[i] = append(txns[i], it)
			}
			sort.Ints(txns[i])
		}
		minsup := 1 + rng.Intn(3)
		want := FilterMaximal(bruteForce(txns, minsup))
		for i := range want {
			sort.Ints(want[i].Items)
		}
		m := NewMiner(txns)
		m.Workers = 4
		got := m.MineMaximal(minsup, nil)
		if len(want) == 0 {
			if len(got) != 0 {
				t.Fatalf("trial %d: mined %v from infrequent db", trial, got)
			}
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d (minsup=%d, txns=%v):\nwant %v\ngot  %v", trial, minsup, txns, want, got)
		}
	}

	// The deep-recursion fixture: three overlapping item lists over 13
	// items, each transaction a list with up to two items missing, give
	// MFIs of ten and more items, so fpmax recurses well past depth 3 and
	// every level's focus list is seeded, extended by deeper stores and
	// queried again. The ground truth here is the quadratic naiveMaximal,
	// not the store under test.
	txns := denseTxns(3, 40, 3, 13)
	for _, minsup := range []int{2, 3} {
		want := naiveMaximal(bruteForce(txns, minsup))
		longest := 0
		for _, s := range want {
			longest = max(longest, len(s.Items))
		}
		if longest < 10 {
			t.Fatalf("dense minsup=%d: longest MFI has %d items, fixture is not deep", minsup, longest)
		}
		for _, workers := range []int{1, 2, 8} {
			got := mineWith(t, txns, workers, minsup, nil)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("dense minsup=%d workers=%d:\nwant %v\ngot  %v", minsup, workers, want, got)
			}
		}
	}
}
