// Package similarity implements the string, date, and geographic similarity
// measures the paper's pipeline relies on: Jaro and Jaro–Winkler, Jaccard
// over q-grams, normalized birth-date component distances, and the expert
// item similarity of Eq. 1.
//
// The string kernels run on two tiers. The common path — pure-ASCII
// inputs, which is what the pipeline's lowered name and place values
// are — indexes the strings byte-wise and borrows its working memory
// from a pooled scratch, so steady-state calls allocate nothing. Any
// non-ASCII byte falls back to the rune-correct reference path, which
// produces bit-identical results for ASCII inputs (the fuzz suite in
// fuzz_test.go pins the two tiers against each other).
package similarity

import (
	"strings"
	"sync"
	"unicode/utf8"
)

// isASCII reports whether s contains only single-byte (ASCII) runes, in
// which case byte indexing and rune indexing coincide.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// kernelScratch is the pooled working memory of the string kernels: the
// Jaro match flags. One scratch serves one call at a time; the pool keeps
// steady-state kernel calls allocation-free.
type kernelScratch struct {
	flags []bool
}

var scratchPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// matchFlags returns two zeroed bool slices of lengths la and lb backed
// by the scratch's shared buffer.
func (sc *kernelScratch) matchFlags(la, lb int) ([]bool, []bool) {
	n := la + lb
	if cap(sc.flags) < n {
		sc.flags = make([]bool, n)
	}
	buf := sc.flags[:n]
	clear(buf)
	return buf[:la:la], buf[la:]
}

// jaroWindow is the Jaro matching window for rune counts la, lb ≥ 1:
// max(la,lb)/2 - 1, floored at 0. The floor falls out of the arithmetic
// (Go integer division truncates toward zero, so the only negative
// case — two single-rune strings, (1-2)/2 — already yields 0) instead
// of a clamp branch.
func jaroWindow(la, lb int) int {
	return (max(la, lb) - 2) / 2
}

// jaroEmpty is the Jaro similarity when a string of length la or lb is
// empty: 1 for two empty strings, 0 otherwise.
func jaroEmpty(la, lb int) float64 {
	if la == lb {
		return 1
	}
	return 0
}

// jaroASCII is the byte-indexed fast path; a and b are ASCII.
func jaroASCII(a, b string) float64 {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return jaroEmpty(la, lb)
	}
	sc := scratchPool.Get().(*kernelScratch)
	matchA, matchB := sc.matchFlags(la, lb)
	window := jaroWindow(la, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(0, i-window)
		hi := min(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if !matchB[j] && a[i] == b[j] {
				matchA[i], matchB[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		scratchPool.Put(sc)
		return 0
	}
	// Count transpositions between the matched subsequences.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	scratchPool.Put(sc)
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// jaroRunes is the rune-correct reference path. The arithmetic mirrors
// jaroASCII step for step, so the two tiers agree bit for bit on ASCII
// inputs.
func jaroRunes(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 || lb == 0 {
		return jaroEmpty(la, lb)
	}
	sc := scratchPool.Get().(*kernelScratch)
	matchA, matchB := sc.matchFlags(la, lb)
	window := jaroWindow(la, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(0, i-window)
		hi := min(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if !matchB[j] && ra[i] == rb[j] {
				matchA[i], matchB[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		scratchPool.Put(sc)
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	scratchPool.Put(sc)
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler returns the Jaro–Winkler similarity with the standard prefix
// scale 0.1 and prefix cap 4. Each input is checked for ASCII once, for
// the Jaro score and the common prefix alike.
func JaroWinkler(a, b string) float64 {
	const (
		prefixScale = 0.1
		prefixCap   = 4
	)
	var j float64
	l := 0
	if isASCII(a) && isASCII(b) {
		j = jaroASCII(a, b)
		for l < len(a) && l < len(b) && l < prefixCap && a[l] == b[l] {
			l++
		}
	} else {
		ra, rb := []rune(a), []rune(b)
		j = jaroRunes(ra, rb)
		for l < len(ra) && l < len(rb) && l < prefixCap && ra[l] == rb[l] {
			l++
		}
	}
	return j + float64(l)*prefixScale*(1-j)
}

// paddedLower returns s lowercased and padded with q-1 '#' on both sides —
// the shared input of every q-gram representation in this package.
func paddedLower(s string, q int) string {
	pad := strings.Repeat("#", q-1)
	return pad + strings.ToLower(s) + pad
}
