package adtree

import (
	"strings"
	"testing"

	"repro/internal/features"
)

func TestConditionEval(t *testing.T) {
	num := Condition{Feature: 0, Numeric: true, Threshold: 0.5}
	cat := Condition{Feature: 1, Level: "yes"}

	v := features.Vector{
		{Present: true, Num: 0.3},
		{Present: true, Cat: "yes"},
	}
	if num.Eval(v) != 1 {
		t.Error("0.3 < 0.5 should hold")
	}
	if cat.Eval(v) != 1 {
		t.Error("cat=yes should hold")
	}

	v[0].Num = 0.5 // boundary: strictly less-than
	if num.Eval(v) != 0 {
		t.Error("0.5 < 0.5 must not hold")
	}
	v[1].Cat = "no"
	if cat.Eval(v) != 0 {
		t.Error("cat=no must not hold")
	}

	v[0].Present = false
	if num.Eval(v) != -1 {
		t.Error("missing feature must evaluate to -1")
	}
	// Out-of-range feature index is treated as missing.
	far := Condition{Feature: 99, Numeric: true, Threshold: 1}
	if far.Eval(v) != -1 {
		t.Error("out-of-range feature must be missing")
	}
}

func TestConditionDescribe(t *testing.T) {
	defs := []features.Def{
		{ID: 0, Name: "B3dist", Kind: features.Numeric},
		{ID: 1, Name: "sameFFN", Kind: features.Categorical, Levels: []string{"yes", "no"}},
	}
	num := Condition{Feature: 0, Numeric: true, Threshold: 1.5}
	if got := num.describe(defs, true); got != "B3dist < 1.5" {
		t.Errorf("describe true = %q", got)
	}
	if got := num.describe(defs, false); got != "B3dist >= 1.5" {
		t.Errorf("describe false = %q", got)
	}
	cat := Condition{Feature: 1, Level: "no"}
	if got := cat.describe(defs, true); got != "sameFFN = no" {
		t.Errorf("describe cat = %q", got)
	}
	if got := cat.describe(defs, false); got != "sameFFN != no" {
		t.Errorf("describe cat false = %q", got)
	}
	// Unknown feature id falls back to a positional name.
	anon := Condition{Feature: 7, Numeric: true, Threshold: 2}
	if got := anon.describe(defs, true); !strings.HasPrefix(got, "f7") {
		t.Errorf("anonymous describe = %q", got)
	}
}

func TestClassBalanceInRoot(t *testing.T) {
	// Root prediction has the sign of the majority class.
	var insts []Instance
	for i := 0; i < 90; i++ {
		insts = append(insts, Instance{X: numVec(0.5), Match: true})
	}
	for i := 0; i < 10; i++ {
		insts = append(insts, Instance{X: numVec(0.5), Match: false})
	}
	cfg := NewTrainConfig()
	cfg.Rounds = 1
	m, err := Train(cfg, numDefs(1), insts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Root.Value <= 0 {
		t.Errorf("root value %v should be positive for 90%% positive data", m.Root.Value)
	}
}

func TestTrainStopsWhenNoSplitHelps(t *testing.T) {
	// A constant feature has no midpoint, so there is no candidate to
	// split on and boosting stops before its first round.
	var insts []Instance
	for i := 0; i < 50; i++ {
		insts = append(insts, Instance{X: numVec(1.0), Match: i%2 == 0})
	}
	cfg := NewTrainConfig()
	cfg.Rounds = 50
	m, err := Train(cfg, numDefs(1), insts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 0 {
		t.Errorf("model boosted a constant feature for %d rounds, want 0", m.Rounds)
	}
	// Whatever it does, scoring must stay finite and symmetric.
	s := m.Score(numVec(1.0))
	if s != s || s > 1e6 || s < -1e6 {
		t.Errorf("score diverged: %v", s)
	}
}
