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
// ground truth on small instances: the maximal frequent sets by definition
// (bruteMaximal) equal the parallel MFI output exactly — on thirty small
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
		want := bruteMaximal(txns, minsup)
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
	// queried again. The ground truth is bruteMaximal, not the store
	// under test.
	txns := denseTxns(3, 40, 3, 13)
	for _, minsup := range []int{2, 3} {
		want := bruteMaximal(txns, minsup)
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

// fuzzWorkers are the worker counts FuzzMineMaximal picks from.
var fuzzWorkers = [...]int{1, 2, 4}

// decodeDB reads a mining problem from fuzz bytes: minsup 1–3 and a
// worker count from the first two bytes, then up to 16 transactions, each
// a little-endian 12-bit item mask in two bytes.
func decodeDB(data []byte) (txns [][]int, minsup, workers int) {
	if len(data) < 2 {
		return nil, 1, 1
	}
	minsup, workers = 1+int(data[0]%3), fuzzWorkers[data[1]%3]
	for data = data[2:]; len(data) >= 2 && len(txns) < 16; data = data[2:] {
		mask := (int(data[0]) | int(data[1])<<8) & 0xfff
		txn := []int{}
		for it := 0; it < 12; it++ {
			if mask&(1<<it) != 0 {
				txn = append(txn, it)
			}
		}
		txns = append(txns, txn)
	}
	return txns, minsup, workers
}

// encodeDB is decodeDB's inverse for the seed corpus; workers is an index
// into fuzzWorkers.
func encodeDB(minsup, workers int, txns ...[]int) []byte {
	data := []byte{byte(minsup - 1), byte(workers)}
	for _, txn := range txns {
		mask := 0
		for _, it := range txn {
			mask |= 1 << it
		}
		data = append(data, byte(mask), byte(mask>>8))
	}
	return data
}

// FuzzMineMaximal holds MineMaximal, across worker counts, against the
// maximal frequent sets by definition (bruteMaximal), and Mine against
// every frequent set (bruteForce), on byte-coded databases of at most 16
// transactions over 12 items. The seeds stress closure folding:
// duplicated transactions, and items implied by other items, so that
// whole groups of ranks fold into one suffix entry. The nested-chain
// seeds also take Mine's chain branch.
func FuzzMineMaximal(f *testing.F) {
	f.Add([]byte{})
	// Duplicated transactions: every item of a duplicate pair is in the
	// closure of each of its items.
	f.Add(encodeDB(2, 0, []int{0, 1, 2}, []int{0, 1, 2}, []int{3, 4}, []int{3, 4}, []int{0, 3}))
	f.Add(encodeDB(1, 1, []int{5, 6, 7, 8}, []int{5, 6, 7, 8}, []int{5, 6, 7, 8}, []int{9}))
	// 1 implies 0, 2 implies {0, 1}, 4 implies 3: folds at depth 0 and
	// below, with closures interleaving the ranks mined under them.
	f.Add(encodeDB(2, 2, []int{0, 1, 2, 5}, []int{0, 1, 2, 6}, []int{0, 1, 7}, []int{0, 3, 4}, []int{0, 3, 4, 5},
		[]int{3, 4, 6}, []int{0, 5, 6}, []int{1, 0, 6}, []int{2, 1, 0, 7}))
	f.Add(encodeDB(3, 1, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		[]int{0, 2, 4, 6, 8, 10}, []int{0, 2, 4, 6, 8, 10, 11}, []int{1, 3, 5, 7, 9, 11}, []int{1, 3, 5, 7, 11}))
	// A nested chain: below item 5, item 0 folds and the rows of 1 and 2
	// are nested, so the bitmap node stores the chain without a loop.
	f.Add(encodeDB(2, 0, []int{0, 1, 2, 5}, []int{0, 1, 2, 5}, []int{0, 1, 5}, []int{0, 1, 5}, []int{0, 5}, []int{0, 5},
		[]int{1, 2, 3}, []int{1, 2, 3}, []int{1, 2, 4}, []int{2, 4}, []int{1, 3}))
	// Dense and nowhere nested: every transaction lacks one or two of
	// the twelve items, each a different one.
	var dense [][]int
	for i := 0; i < 16; i++ {
		var txn []int
		for it := 0; it < 12; it++ {
			if it != i%12 && it != (5*i+3)%12 {
				txn = append(txn, it)
			}
		}
		dense = append(dense, txn)
	}
	f.Add(encodeDB(3, 1, dense...))
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 2+2*rng.Intn(17))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		txns, minsup, workers := decodeDB(data)
		want := bruteMaximal(txns, minsup)
		got := mineWith(t, txns, workers, minsup, nil)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("minsup=%d workers=%d txns=%v:\nwant %v\ngot  %v", minsup, workers, txns, want, got)
		}
		all, frequent := mineAll(t, NewMiner(txns), minsup, nil), bruteForce(txns, minsup)
		if len(all) != len(frequent) || !reflect.DeepEqual(canonical(all), canonical(frequent)) {
			t.Fatalf("Mine: minsup=%d txns=%v:\nwant %v\ngot  %v", minsup, txns, frequent, all)
		}
	})
}
