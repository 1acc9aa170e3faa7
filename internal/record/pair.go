package record

// Pair is an unordered record pair in canonical order (A < B). Use MakePair
// to construct one so map keys compare correctly.
type Pair struct {
	A, B int64
}

// MakePair returns the canonical pair of two BookIDs.
func MakePair(a, b int64) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}
