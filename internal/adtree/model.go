// Package adtree implements alternating decision trees (Freund & Mason,
// ICML 1999): a boosted ensemble of rules arranged as a tree that
// alternates prediction nodes (real-valued confidence contributions) and
// splitter nodes (tests). The instance score is the sum of every reachable
// prediction node; its sign is the classification and its magnitude the
// ranking confidence the paper's uncertain resolution relies on.
//
// Missing feature values follow the paper's semantics: a splitter whose
// feature is absent for the instance is unreachable, contributing nothing
// on either branch.
package adtree

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/features"
)

// Condition is one splitter test over a feature.
type Condition struct {
	// Feature indexes the feature vector.
	Feature int
	// Numeric selects "value < Threshold" tests; otherwise the test is
	// "value == Level".
	Numeric   bool
	Threshold float64
	Level     string
}

// Eval returns +1 when the condition holds, 0 when it does not, and -1
// when the feature is missing (or is one the vector does not hold).
func (c Condition) Eval(v features.Vector) int {
	return c.test(v.At(c.Feature))
}

// test is Eval over the condition's feature value.
func (c Condition) test(x features.Value) int {
	switch {
	case !x.Present:
		return -1
	case c.Numeric && x.Num < c.Threshold, !c.Numeric && x.Cat == c.Level:
		return 1
	}
	return 0
}

// describe renders the condition's true or false branch label.
func (c Condition) describe(defs []features.Def, branch bool) string {
	name := fmt.Sprintf("f%d", c.Feature)
	if c.Feature < len(defs) {
		name = defs[c.Feature].Name
	}
	if c.Numeric {
		if branch {
			return fmt.Sprintf("%s < %.3g", name, c.Threshold)
		}
		return fmt.Sprintf("%s >= %.3g", name, c.Threshold)
	}
	if branch {
		return fmt.Sprintf("%s = %s", name, c.Level)
	}
	return fmt.Sprintf("%s != %s", name, c.Level)
}

// PredictionNode carries a confidence contribution and the splitters
// attached beneath it. General ADTrees allow several splitters per
// prediction node.
type PredictionNode struct {
	Value     float64
	Splitters []*SplitterNode
}

// SplitterNode tests a condition and routes to two prediction nodes.
type SplitterNode struct {
	// Order is the boosting round (1-based) that introduced the rule,
	// shown in the rendered tree as "(order)".
	Order int
	Cond  Condition
	True  *PredictionNode
	False *PredictionNode
}

// Model is a trained alternating decision tree.
type Model struct {
	Root *PredictionNode
	// Defs are the feature definitions the model was trained over, used
	// for rendering.
	Defs []features.Def
	// Rounds is the number of boosting rounds performed.
	Rounds int
}

// Score returns the sum of all reachable prediction node values — the
// ranking confidence. Positive means match.
func (m *Model) Score(v features.Vector) float64 {
	return scoreNode(m.Root, reader{vec: v})
}

// ScorePair is Score over a pair whose features are computed on demand:
// the walk pulls a feature from e only when it reaches a splitter that
// tests it, so a splitter under a missing precondition — and every
// feature only its subtree tests — costs nothing. The splitter order and
// the summation order are Score's, so the result is bit-identical to
// Score over the pair's full vector. The model's features must index e:
// Load and core.Options.Validate see to that for a model from a file.
func (m *Model) ScorePair(e *features.PairEval) float64 {
	return scoreNode(m.Root, reader{pair: e})
}

// reader is where the one tree walk reads a feature from: a full vector,
// or a pair evaluator when pair is set. It is a struct of both and not an
// interface or a type parameter because a method called through either
// makes its receiver escape, which would move ScorePair's callers'
// stack-held evaluators (core.Resolution.ScorePair's is 1.6 KB per
// request) to the heap.
type reader struct {
	vec  features.Vector
	pair *features.PairEval
}

func (r reader) at(id int) features.Value {
	if r.pair != nil {
		return r.pair.At(id)
	}
	return r.vec.At(id)
}

func scoreNode(p *PredictionNode, r reader) float64 {
	sum := p.Value
	for _, s := range p.Splitters {
		switch s.Cond.test(r.at(s.Cond.Feature)) {
		case 1:
			sum += scoreNode(s.True, r)
		case 0:
			sum += scoreNode(s.False, r)
			// -1: feature missing; the splitter and its whole subtree are
			// unreachable.
		}
	}
	return sum
}

// Classify returns true when the score exceeds zero (the paper's default
// decision rule).
func (m *Model) Classify(v features.Vector) bool { return m.Score(v) > 0 }

// UsedFeatures returns the distinct feature ids tested anywhere in the
// tree, sorted.
func (m *Model) UsedFeatures() []int {
	seen := map[int]bool{}
	var walk func(p *PredictionNode)
	walk = func(p *PredictionNode) {
		for _, s := range p.Splitters {
			seen[s.Cond.Feature] = true
			walk(s.True)
			walk(s.False)
		}
	}
	walk(m.Root)
	out := make([]int, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// String renders the model in the Weka-style layout of Tables 7 and 8:
//
//	: -0.289
//	|  (1)sameFFN = no: -1.314
//	|  |  (6)MFNdist < 0.728: -0.718
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ": %.3g\n", m.Root.Value)
	renderSplitters(&b, m.Root, m.Defs, 1)
	return b.String()
}

func renderSplitters(b *strings.Builder, p *PredictionNode, defs []features.Def, depth int) {
	indent := strings.Repeat("|  ", depth)
	for _, s := range p.Splitters {
		fmt.Fprintf(b, "%s(%d)%s: %.3g\n", indent, s.Order, s.Cond.describe(defs, true), s.True.Value)
		renderSplitters(b, s.True, defs, depth+1)
		fmt.Fprintf(b, "%s(%d)%s: %.3g\n", indent, s.Order, s.Cond.describe(defs, false), s.False.Value)
		renderSplitters(b, s.False, defs, depth+1)
	}
}

// sign is the training-label convention: +1 match, -1 non-match.
func sign(match bool) float64 {
	if match {
		return 1
	}
	return -1
}

// halfLogRatio is the smoothed confidence value 0.5*ln((wp+1)/(wn+1)).
func halfLogRatio(wp, wn float64) float64 {
	return 0.5 * math.Log((wp+1)/(wn+1))
}
