package core

import (
	"testing"

	"repro/internal/adtree"
	"repro/internal/eval"
	"repro/internal/mfiblocks"
)

// Golden end-to-end quality bounds on the Italy preset (600 persons,
// seed 1944) with the full trained pipeline. The generator and pipeline
// are both deterministic, so drift outside these windows means resolution
// quality changed — regenerate intentionally or find the regression.
// The windows leave headroom for intentional model/feature tuning while
// still catching gross regressions (a broken filter, a scoring
// inversion, a blocking recall collapse).
// Measured on the current pipeline: precision 0.964, recall 0.650,
// F1 0.776.
const (
	goldenMinPrecision = 0.90
	goldenMinRecall    = 0.60
	goldenMinF1        = 0.72
)

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
	if m.Precision < goldenMinPrecision {
		t.Errorf("precision %.4f below golden floor %.2f", m.Precision, goldenMinPrecision)
	}
	if m.Recall < goldenMinRecall {
		t.Errorf("recall %.4f below golden floor %.2f", m.Recall, goldenMinRecall)
	}
	if m.F1 < goldenMinF1 {
		t.Errorf("f1 %.4f below golden floor %.2f", m.F1, goldenMinF1)
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
