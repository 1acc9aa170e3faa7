package adtree

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/features"
)

// Wire format: nodes are flattened with parent/branch references so the
// alternating structure round-trips exactly.

type jsonModel struct {
	Rounds    int            `json:"rounds"`
	Root      float64        `json:"root"`
	Splitters []jsonSplitter `json:"splitters"`
	Features  []jsonFeature  `json:"features"`
}

type jsonSplitter struct {
	Order int `json:"order"`
	// Parent is the prediction-node id the splitter hangs under: 0 is
	// the root; splitter k's true/false prediction nodes are 2k+1/2k+2.
	Parent    int     `json:"parent"`
	Feature   int     `json:"feature"`
	Numeric   bool    `json:"numeric"`
	Threshold float64 `json:"threshold,omitempty"`
	Level     string  `json:"level,omitempty"`
	TrueVal   float64 `json:"true_val"`
	FalseVal  float64 `json:"false_val"`
}

type jsonFeature struct {
	Name   string   `json:"name"`
	Kind   uint8    `json:"kind"`
	Levels []string `json:"levels,omitempty"`
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	jm := jsonModel{Rounds: m.Rounds, Root: m.Root.Value}
	for _, d := range m.Defs {
		jm.Features = append(jm.Features, jsonFeature{Name: d.Name, Kind: uint8(d.Kind), Levels: d.Levels})
	}
	// Assign ids: walk prediction nodes in splitter-discovery order.
	ids := map[*PredictionNode]int{m.Root: 0}
	next := 1
	var walk func(p *PredictionNode)
	walk = func(p *PredictionNode) {
		for _, s := range p.Splitters {
			tID, fID := next, next+1
			next += 2
			ids[s.True], ids[s.False] = tID, fID
			jm.Splitters = append(jm.Splitters, jsonSplitter{
				Order:     s.Order,
				Parent:    ids[p],
				Feature:   s.Cond.Feature,
				Numeric:   s.Cond.Numeric,
				Threshold: s.Cond.Threshold,
				Level:     s.Cond.Level,
				TrueVal:   s.True.Value,
				FalseVal:  s.False.Value,
			})
			walk(s.True)
			walk(s.False)
		}
	}
	walk(m.Root)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&jm)
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var jm jsonModel
	if err := json.NewDecoder(r).Decode(&jm); err != nil {
		return nil, fmt.Errorf("adtree: decode model: %w", err)
	}
	m := &Model{Root: &PredictionNode{Value: jm.Root}, Rounds: jm.Rounds}
	for i, f := range jm.Features {
		m.Defs = append(m.Defs, features.Def{ID: i, Name: f.Name, Kind: features.Kind(f.Kind), Levels: f.Levels})
	}
	nodes := map[int]*PredictionNode{0: m.Root}
	next := 1
	for _, s := range jm.Splitters {
		parent, ok := nodes[s.Parent]
		if !ok {
			return nil, fmt.Errorf("adtree: splitter order %d references unknown node %d", s.Order, s.Parent)
		}
		// Scoring indexes a fixed-size evaluator by Feature and reads the
		// value the condition's type names, so both are checked here.
		if s.Feature < 0 || s.Feature >= len(m.Defs) {
			return nil, fmt.Errorf("adtree: splitter order %d tests feature %d, the model lists %d features", s.Order, s.Feature, len(m.Defs))
		}
		kind := features.Categorical
		if s.Numeric {
			kind = features.Numeric
		}
		if d := m.Defs[s.Feature]; d.Kind != kind {
			return nil, fmt.Errorf("adtree: splitter order %d (numeric=%t) contradicts the kind %d of feature %d (%s)", s.Order, s.Numeric, d.Kind, s.Feature, d.Name)
		}
		sp := &SplitterNode{
			Order: s.Order,
			Cond: Condition{
				Feature:   s.Feature,
				Numeric:   s.Numeric,
				Threshold: s.Threshold,
				Level:     s.Level,
			},
			True:  &PredictionNode{Value: s.TrueVal},
			False: &PredictionNode{Value: s.FalseVal},
		}
		parent.Splitters = append(parent.Splitters, sp)
		nodes[next] = sp.True
		nodes[next+1] = sp.False
		next += 2
	}
	return m, nil
}
