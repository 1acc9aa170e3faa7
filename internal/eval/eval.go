// Package eval provides the pair-level evaluation machinery: precision,
// recall, F1, reduction ratio, tag-bin analysis, and k-fold
// cross-validation splits.
package eval

import (
	"fmt"

	"repro/internal/record"
)

// PairSet is a set of canonical record pairs.
type PairSet map[record.Pair]struct{}

// NewPairSet builds a set from a slice of pairs.
func NewPairSet(pairs []record.Pair) PairSet {
	s := make(PairSet, len(pairs))
	for _, p := range pairs {
		s[p] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s PairSet) Has(p record.Pair) bool {
	_, ok := s[p]
	return ok
}

// Add inserts a pair.
func (s PairSet) Add(p record.Pair) { s[p] = struct{}{} }

// Metrics holds the confusion counts and derived quality measures of a
// predicted pair set against a truth pair set.
type Metrics struct {
	TP, FP, FN int
	Precision  float64
	Recall     float64
	F1         float64
}

// Evaluate scores predicted pairs against true pairs.
func Evaluate(predicted []record.Pair, truth PairSet) Metrics {
	var m Metrics
	seen := make(PairSet, len(predicted))
	for _, p := range predicted {
		if seen.Has(p) {
			continue
		}
		seen.Add(p)
		if truth.Has(p) {
			m.TP++
		} else {
			m.FP++
		}
	}
	m.FN = len(truth) - m.TP
	m.Precision = ratio(m.TP, m.TP+m.FP)
	m.Recall = ratio(m.TP, m.TP+m.FN)
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// String renders the metrics in the paper's table style.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)",
		m.Precision, m.Recall, m.F1, m.TP, m.FP, m.FN)
}

// ReductionRatio returns 1 - comparisons/totalPairs: the fraction of the
// Cartesian pair space a blocking method avoids.
func ReductionRatio(comparisons, records int) float64 {
	total := records * (records - 1) / 2
	if total == 0 {
		return 0
	}
	rr := 1 - float64(comparisons)/float64(total)
	if rr < 0 {
		return 0
	}
	return rr
}

// Accuracy returns the fraction of correct binary decisions.
func Accuracy(correct, total int) float64 { return ratio(correct, total) }

// Folds splits n indices into k contiguous folds for cross-validation.
// Each fold is non-empty when k <= n.
func Folds(n, k int) [][]int {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	folds := make([][]int, k)
	for i := 0; i < n; i++ {
		f := i * k / n
		folds[f] = append(folds[f], i)
	}
	return folds
}

// TrainIndices returns all indices not in the held-out fold.
func TrainIndices(folds [][]int, holdout int) []int {
	var out []int
	for f, idxs := range folds {
		if f == holdout {
			continue
		}
		out = append(out, idxs...)
	}
	return out
}

// BCubed returns the B-cubed precision and recall of a clustering against
// the true one (Bagga and Baldwin): item i is in cluster cluster[i] and
// in true cluster truth[i]. An item's precision is the share of its
// cluster that shares its true cluster, its recall the share of its true
// cluster that shares its cluster, and both are averaged over the items.
// Unlike pair precision and recall, an entity weighs by its size, not by
// the square of it. No items give 0 and 0; labellings of unequal length
// are an error.
func BCubed(cluster, truth []int) (precision, recall float64, err error) {
	if len(cluster) != len(truth) {
		return 0, 0, fmt.Errorf("eval: B-cubed over %d cluster and %d true labels", len(cluster), len(truth))
	}
	if len(cluster) == 0 {
		return 0, 0, nil
	}
	clusterSize := map[int]int{}
	truthSize := map[int]int{}
	both := map[[2]int]int{}
	for i, c := range cluster {
		clusterSize[c]++
		truthSize[truth[i]]++
		both[[2]int{c, truth[i]}]++
	}
	// The items are summed in order, so the result does not depend on
	// map iteration order.
	for i, c := range cluster {
		n := float64(both[[2]int{c, truth[i]}])
		precision += n / float64(clusterSize[c])
		recall += n / float64(truthSize[truth[i]])
	}
	return precision / float64(len(cluster)), recall / float64(len(cluster)), nil
}
