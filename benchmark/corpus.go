package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/adtree"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/gazetteer"
	"repro/internal/record"
)

// corpus is one generated input: the records the program receives plus
// the generator's gold standard the checks score against.
type corpus struct {
	name    string
	records []*record.Record
	coll    *record.Collection
	gold    *dataset.Gold
	gaz     *gazetteer.Gazetteer
}

// fingerprint pins a default-seed corpus: a mismatch means the inputs
// drifted and no timing taken on them compares with an earlier one.
type fingerprint struct {
	SHA256    string `json:"sha256"`
	Records   int    `json:"records"`
	TruePairs int    `json:"true_pairs"`
}

//go:embed fingerprints.json
var fingerprintsJSON []byte

// italyCorpus is the ItalySet preset (single community, so
// dataset.Generate is reproducible as is); persons > 0 overrides the
// preset size.
func italyCorpus(persons int) (*corpus, error) {
	cfg := dataset.ItalyConfig()
	if persons > 0 {
		cfg.Persons = persons
	}
	g, err := dataset.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("italy corpus: %w", err)
	}
	return &corpus{name: "italy", records: g.Records, coll: g.Collection, gold: g.Gold, gaz: g.Gaz}, nil
}

// randomCorpus builds the six-community RandomSet shape from six
// single-community Generate calls. dataset.Generate itself is not
// reproducible for multi-community configs (makeLists draws from the rng
// while ranging over a map; see README "Follow-ups"), so the communities
// are generated apart — persons split by the preset weights exactly as
// allocatePersons does, seeds base+i — and stitched together with
// BookIDs and gold entity/family ids re-based to be disjoint.
func randomCorpus(persons int) (*corpus, error) {
	preset := dataset.RandomSetConfig(persons)
	total := 0.0
	for _, cw := range preset.Communities {
		total += cw.Weight
	}
	c := &corpus{name: "random", gold: dataset.NewGold(), gaz: gazetteer.Builtin(preset.TownsPerCounty)}
	nextID := int64(1000000)
	entityBase, familyBase, remaining := 0, 0, persons
	for i, cw := range preset.Communities {
		count := int(float64(persons) * cw.Weight / total)
		if i == len(preset.Communities)-1 {
			count = remaining
		}
		if count <= 0 {
			continue
		}
		remaining -= count
		cfg := preset
		cfg.Seed = preset.Seed + int64(i)
		cfg.Persons = count
		cfg.Communities = []dataset.CommunityWeight{{Comm: cw.Comm, Weight: 1}}
		g, err := dataset.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("random corpus: %s: %w", cw.Comm, err)
		}
		for _, r := range g.Records {
			e, _ := g.Gold.Entity(r.BookID)
			f, _ := g.Gold.Family(r.BookID)
			r.BookID = nextID
			nextID++
			c.gold.Add(r.BookID, entityBase+e, familyBase+f)
			c.records = append(c.records, r)
		}
		entityBase += len(g.Persons)
		familyBase += len(g.Families)
	}
	coll, err := record.NewCollection(c.records)
	if err != nil {
		return nil, fmt.Errorf("random corpus: %w", err)
	}
	c.coll = coll
	return c, nil
}

func (c *corpus) fingerprint() (fingerprint, error) {
	h := sha256.New()
	if err := record.WriteJSONL(h, c.records); err != nil {
		return fingerprint{}, err
	}
	return fingerprint{
		SHA256:    hex.EncodeToString(h.Sum(nil)),
		Records:   len(c.records),
		TruePairs: c.gold.TruePairCount(),
	}, nil
}

// rebase derives the run's input from the generated corpus and the
// workload seed: every BookID moves up by seed × 10,000,000, so the
// reports keep their order and content and only their identifiers (and
// with them every pair the program emits) differ between seeds. Seed 0
// leaves the corpus as generated.
//
// The seed neither regenerates nor reorders the records. Ten regenerated
// ItalySets differ by 17% (interquartile) in resolve time and 6-10% in
// recall, because a handful of list patterns decide how dense the mining
// is; the same records in another order still differ by ±2.5% in resolve
// time and ±0.3% in recall, because ties are broken by position. Either
// would be noise on top of the machine's, and the bounds gate changes of
// that size.
func (c *corpus) rebase(seed int64) error {
	if seed == 0 {
		return nil
	}
	if seed < 0 {
		seed = -seed
	}
	offset := seed % 1000 * 10_000_000
	gold := dataset.NewGold()
	for _, r := range c.records {
		e, _ := c.gold.Entity(r.BookID)
		f, _ := c.gold.Family(r.BookID)
		r.BookID += offset
		gold.Add(r.BookID, e, f)
	}
	coll, err := record.NewCollection(c.records)
	if err != nil {
		return err
	}
	c.gold, c.coll = gold, coll
	return nil
}

// fingerprintKey names a corpus in fingerprints.json; persons 0 is the
// measured size.
func fingerprintKey(name string, persons int) string {
	return fmt.Sprintf("%s-%d", name, persons)
}

// checkFingerprint compares the corpus as generated with the pinned
// fingerprint of its key (name and size). Corpora without a pin —
// another -persons — pass.
func (c *corpus) checkFingerprint(key string) error {
	pins := map[string]fingerprint{}
	if err := json.Unmarshal(fingerprintsJSON, &pins); err != nil {
		return fmt.Errorf("fingerprints.json: %w", err)
	}
	want, ok := pins[key]
	if !ok {
		return nil
	}
	got, err := c.fingerprint()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("corpus %s drifted from its pinned fingerprint: got %+v, want %+v", key, got, want)
	}
	return nil
}

// prepare checks the generated corpus against its pinned fingerprint,
// then gives it the seed's identifiers.
func (c *corpus) prepare(in inputs) error {
	if err := c.checkFingerprint(fingerprintKey(c.name, in.persons)); err != nil {
		return err
	}
	return c.rebase(in.seed)
}

// truth is the gold standard as the pair set eval.Evaluate scores against.
func (c *corpus) truth() eval.PairSet { return eval.NewPairSet(c.gold.TruePairs()) }

// trainModel trains the ADTree every workload scores with, on an Italy
// split generated apart from every corpus under test (preset seed+1000),
// so precision and recall are not train-on-test: a no-model resolve
// proposes the candidates, the simulated experts tag them, and the
// Maybe tags are left out as in the paper's Table 6 best row. The
// workload seed does not reach it: the model is the deployed one, part
// of the program's configuration, not of the input.
func trainModel(persons int) (*adtree.Model, error) {
	g, tags, err := trainingSet(persons)
	if err != nil {
		return nil, err
	}
	model, err := core.TrainModel(adtree.NewTrainConfig(), tags, g.Collection, g.Gaz, core.OmitMaybe)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return model, nil
}

// trainingSet generates the training split and its expert tags.
func trainingSet(persons int) (*dataset.Generated, *dataset.TagSet, error) {
	cfg := dataset.ItalyConfig()
	cfg.Seed += 1000
	cfg.Persons = persons
	g, err := dataset.Generate(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("train split: %w", err)
	}
	opts := core.NewOptions(g.Gaz)
	opts.Gazetteer = g.Gaz
	opts.Classify = false
	opts.Workers = procs
	opts.Metrics = registry
	res, err := core.Run(opts, g.Collection)
	if err != nil {
		return nil, nil, fmt.Errorf("train split resolve: %w", err)
	}
	tagger := &dataset.Tagger{Gold: g.Gold, Coll: g.Collection, Rng: rand.New(rand.NewSource(cfg.Seed))}
	return g, tagger.TagPairs(res.Blocking.Pairs), nil
}
