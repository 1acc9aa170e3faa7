package trace

import "sort"

// TreeSchemaVersion identifies the SpanTree JSON layout embedded in
// telemetry.RunReport; bump it on any field removal or rename.
const TreeSchemaVersion = 1

// Node is one span in the compact tree export.
type Node struct {
	Name       string           `json:"name"`
	Kind       string           `json:"kind"`
	StartNS    int64            `json:"start_ns"`
	DurationNS int64            `json:"duration_ns"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
	Children   []*Node          `json:"children,omitempty"`
}

// SpanTree is the versioned span section of a run report: the run's
// span hierarchy plus the flight recorder's summary when a sampler ran.
type SpanTree struct {
	SchemaVersion int             `json:"schema_version"`
	Spans         int             `json:"spans"`
	Roots         []*Node         `json:"roots"`
	Sampler       *SamplerSummary `json:"sampler,omitempty"`
}

// TreeMode selects how Tree renders the hierarchy.
type TreeMode int

const (
	// Full keeps every span with its timings, children in creation
	// order — the report form humans read.
	Full TreeMode = iota
	// Canonical is the determinism-test form: timings zeroed,
	// configuration-dependent spans (KindWorker, KindSetup) pruned with
	// their subtrees, and siblings sorted under a total order. Two runs
	// over the same input and parameters produce byte-identical
	// Canonical trees for every worker count.
	Canonical
)

// Tree exports the span hierarchy. Orphans (spans whose parent was
// never published — impossible through the public API) and roots beyond
// the run span all surface as roots, so nothing recorded is dropped.
func (t *Tracer) Tree(mode TreeMode) *SpanTree {
	if t == nil {
		return nil
	}
	spans := t.spans()
	tree := &SpanTree{SchemaVersion: TreeSchemaVersion, Spans: len(spans)}
	if s := t.sampler.Load(); s != nil {
		tree.Sampler = s.Summary()
	}
	nodes := make(map[*Span]*Node, len(spans))
	for _, s := range spans {
		n := &Node{
			Name:       s.name,
			Kind:       s.kind.String(),
			StartNS:    s.start,
			DurationNS: s.endOrNow() - s.start,
		}
		if len(s.attrs) > 0 {
			n.Attrs = make(map[string]int64, len(s.attrs))
			for _, a := range s.attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		nodes[s] = n
	}
	for _, s := range spans {
		n := nodes[s]
		if s.parent != nil {
			if p := nodes[s.parent]; p != nil {
				p.Children = append(p.Children, n)
				continue
			}
		}
		tree.Roots = append(tree.Roots, n)
	}
	if mode == Canonical {
		tree.Roots = canonicalize(tree.Roots)
		tree.Sampler = nil
		total := 0
		for _, r := range tree.Roots {
			total += countNodes(r)
		}
		tree.Spans = total
	}
	return tree
}

// canonicalize prunes variable-cardinality subtrees, zeroes timings,
// and sorts siblings by (kind, name, attrs) — a total order over the
// deterministic spans, since sibling iterations differ in their minsup
// attribute and sibling stages differ in name.
func canonicalize(roots []*Node) []*Node {
	var walk func(ns []*Node) []*Node
	walk = func(ns []*Node) []*Node {
		out := ns[:0]
		for _, n := range ns {
			if n.Kind == KindWorker.String() || n.Kind == KindSetup.String() {
				continue
			}
			n.StartNS = 0
			n.DurationNS = 0
			n.Children = walk(n.Children)
			out = append(out, n)
		}
		sort.SliceStable(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.Kind != b.Kind {
				return kindOf(a.Kind) < kindOf(b.Kind)
			}
			if a.Name != b.Name {
				return a.Name < b.Name
			}
			return attrMapString(a.Attrs) < attrMapString(b.Attrs)
		})
		return out
	}
	return walk(append([]*Node(nil), roots...))
}

func countNodes(n *Node) int {
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

// attrMapString renders a node's attrs as a deterministic sort key.
func attrMapString(m map[string]int64) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	attrs := make([]Attr, 0, len(keys))
	for _, k := range keys {
		attrs = append(attrs, Attr{Key: k, Value: m[k]})
	}
	return attrString(attrs)
}
