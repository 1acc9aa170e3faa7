package features

// PairMemo has no effect: the extractor runs the similarity kernels
// directly and caches nothing across pairs. The type remains only
// because benchmark/staged.go:306 builds one and reads its Stats;
// ROADMAP 1(a) deletes it with that code.
type PairMemo struct{}

// MemoStats is what Stats reports: always zero.
type MemoStats struct {
	Hits   int64
	Misses int64
}

// NewPairMemo returns an empty memo; size is ignored.
func NewPairMemo(int) *PairMemo { return &PairMemo{} }

// Stats returns zeros.
func (*PairMemo) Stats() MemoStats { return MemoStats{} }
