package core

import (
	"fmt"
	"io"

	"repro/internal/gazetteer"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// RecordSource yields records one at a time; io.EOF ends the stream.
// store.WindowReader satisfies it directly, so a .yvst file streams into
// the pipeline without ever materializing the whole corpus.
type RecordSource interface {
	NextRecord() (*record.Record, error)
}

// CollectionSource streams an in-memory collection: the source batch Run
// feeds the pipeline from, and the adapter the equivalence tests use to
// drive RunStream over the exact records a batch Run saw.
type CollectionSource struct {
	records []*record.Record
	pos     int
}

// NewCollectionSource streams the collection's records in order.
func NewCollectionSource(coll *record.Collection) *CollectionSource {
	return &CollectionSource{records: coll.Records}
}

// NextRecord implements RecordSource.
func (s *CollectionSource) NextRecord() (*record.Record, error) {
	if s.pos >= len(s.records) {
		return nil, io.EOF
	}
	r := s.records[s.pos]
	s.pos++
	return r, nil
}

// Len is the collection's record count — the total the ingest stage
// posts to Progress, which a file stream cannot know up front.
func (s *CollectionSource) Len() int { return len(s.records) }

// StreamOptions configures RunStream.
type StreamOptions struct {
	Options
	// RetainRecords keeps the full (preprocessed) records in memory.
	// When false — the bounded-memory default — the ingest stage keeps
	// only skeleton records (BookID, Source, Kind): enough for SameSrc
	// filtering and entity clustering, while the corpus holds just the
	// compact encoded transactions. Model scoring and ExpertSim blocking
	// compare record values, so they require RetainRecords.
	RetainRecords bool
}

// Validate extends Options.Validate with the streaming constraints.
func (o *StreamOptions) Validate() error {
	if err := o.Options.Validate(); err != nil {
		return err
	}
	if o.Model != nil && !o.RetainRecords {
		return fmt.Errorf("core: Model scoring requires RetainRecords")
	}
	if o.Blocking.ExpertSim && !o.RetainRecords {
		return fmt.Errorf("core: ExpertSim blocking requires RetainRecords")
	}
	return nil
}

// RunStream executes the pipeline over a record stream: ingest (read,
// preprocess, encode — one record at a time), blocking over the encoded
// corpus, then resolve (scoring over the resident or disk-spilled
// candidate set, ranking, report assembly). It is the one pipeline body;
// Run is RunStream over the collection with its records retained. Unless
// RetainRecords is set, peak memory is bounded by the encoded corpus plus
// the blocking stage's candidate window (Blocking.SpillPairs), not by the
// record values or the candidate-pair count. The final Matches (and
// everything derived from them: Pairs, AtCertainty, Clusters) are
// bit-identical to a batch Run over the same records with the same
// options.
func RunStream(opts StreamOptions, src RecordSource) (*Resolution, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	wireDefaults(&opts.Options)
	report := &telemetry.RunReport{
		SchemaVersion: telemetry.ReportSchemaVersion,
		Workers:       opts.workers(),
	}
	// Workload attributes only — no worker counts — so Canonical
	// trees stay identical across fan-out configurations; records is
	// attached once the ingest count is known.
	root := opts.Trace.StartSpan(nil, "run", trace.WithKind(trace.KindRun))
	stages := &stageRunner{report: report, root: root}

	corpus := &mfiblocks.Corpus{Dict: record.NewDictionary()}
	var kept []*record.Record
	if err := stages.run("ingest", func(sp *trace.Span) (map[string]int64, error) {
		// A source that knows its length gives the progress line a total;
		// a file stream does not, and posts 0 (unknown).
		var total int64
		if ln, ok := src.(interface{ Len() int }); ok {
			total = int64(ln.Len())
		}
		opts.Progress.Stage("ingest", total)
		gaz := opts.Gazetteer
		if gaz == nil && opts.Preprocess {
			gaz = gazetteer.Builtin(0)
		}
		for {
			r, err := src.NextRecord()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("core: ingest: %w", err)
			}
			if opts.Preprocess {
				r = preprocessRecord(r, gaz)
			}
			corpus.Append(corpus.Dict.Observe(r), r.BookID)
			if opts.RetainRecords {
				kept = append(kept, r)
			} else {
				// Skeleton: identity and provenance survive, item values
				// are dropped — the encoded transaction already carries
				// everything blocking needs.
				kept = append(kept, &record.Record{BookID: r.BookID, Source: r.Source, Kind: r.Kind})
			}
			opts.Progress.Add(1)
		}
		// A windowed store reader knows how many bytes of torn tail it
		// skipped; surface that in the report without coupling core to
		// the store package.
		if tr, ok := src.(interface{ TornBytes() int64 }); ok {
			report.TornBytes = tr.TornBytes()
		}
		return map[string]int64{"records": int64(len(kept))}, nil
	}); err != nil {
		return nil, err
	}

	work, err := record.NewCollection(kept)
	if err != nil {
		return nil, fmt.Errorf("core: ingest: %w", err)
	}
	report.Records = work.Len()
	root.Attr("records", int64(work.Len()))
	if opts.RetainRecords {
		corpus.Records = work.Records
	}

	var blk *mfiblocks.Result
	if err := stages.run("blocking", func(sp *trace.Span) (map[string]int64, error) {
		blocking := opts.Blocking
		blocking.Trace = sp
		var err error
		blk, err = mfiblocks.RunCorpus(blocking, corpus)
		if err != nil {
			return nil, fmt.Errorf("core: blocking: %w", err)
		}
		return blockingCounters(blk), nil
	}); err != nil {
		return nil, err
	}

	return resolve(&opts.Options, report, stages, work, blk)
}
