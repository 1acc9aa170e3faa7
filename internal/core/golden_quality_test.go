package core

import (
	"testing"

	"repro/internal/adtree"
	"repro/internal/eval"
	"repro/internal/mfiblocks"
)

// goldenMetrics is the full pipeline's pair quality on the Italy preset
// (600 persons, seed 1944) with the trained model, exactly as measured.
// The generator and the pipeline are both deterministic, so any change
// here is a change in resolution quality: a perf or simplicity change
// must leave it alone, and a change meant to move quality updates it
// with the move in its description.
var goldenMetrics = eval.Metrics{
	TP: 700, FP: 26, FN: 377,
	Precision: 0.9641873278236914,
	Recall:    0.6499535747446611,
	F1:        0.776483638380477,
}

// TestGoldenEndToEndQuality pins the full pipeline's quality on the
// Italy preset — and requires the streaming spilled path to land on the
// exact same metrics, since its matches must be bit-identical.
func TestGoldenEndToEndQuality(t *testing.T) {
	fx := newFixture(t, 600)
	gen := fx.gen
	model, err := TrainModel(adtree.NewTrainConfig(), fx.tags, gen.Collection, gen.Gaz, OmitMaybe)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Blocking:   mfiblocks.NewConfig(),
		Geo:        gen.Gaz,
		Preprocess: true,
		Gazetteer:  gen.Gaz,
		SameSrc:    true,
		Model:      model,
		Classify:   true,
	}
	res, err := Run(opts, gen.Collection)
	if err != nil {
		t.Fatal(err)
	}

	truth := eval.NewPairSet(gen.Gold.TruePairs())
	m := eval.Evaluate(res.Pairs(), truth)
	t.Logf("golden e2e: precision=%.4f recall=%.4f f1=%.4f (tp=%d fp=%d fn=%d)",
		m.Precision, m.Recall, m.F1, m.TP, m.FP, m.FN)
	if m != goldenMetrics {
		t.Errorf("quality moved: got %+v, golden %+v", m, goldenMetrics)
	}

	// The streaming spilled path must land on the exact same metrics.
	sopts := StreamOptions{Options: opts, RetainRecords: true}
	sopts.Blocking.SpillPairs = 256
	sopts.Blocking.SpillDir = t.TempDir()
	sres, err := RunStream(sopts, NewCollectionSource(gen.Collection))
	if err != nil {
		t.Fatal(err)
	}
	sm := eval.Evaluate(sres.Pairs(), truth)
	if sm != m {
		t.Errorf("streaming metrics diverge from batch: %+v vs %+v", sm, m)
	}
}
