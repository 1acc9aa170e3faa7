package core

import (
	"fmt"
	"io"
	"sync"

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
// preprocess on the worker pool, encode in record order), blocking over
// the encoded corpus, then resolve (scoring over two position columns —
// a resident result's own, or a disk-spilled merge converted to
// positions once — ranking, report assembly). It is the one
// pipeline body; Run is RunStream over the collection with its records
// retained. Unless RetainRecords is set, peak memory is bounded by the
// encoded corpus plus the blocking stage's candidate window
// (Blocking.SpillPairs), not by the record values or the candidate-pair
// count. The final Matches (and
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
	if err := stages.run("ingest", func(*trace.Span) error {
		// A source that knows its length gives the progress line a total;
		// a file stream does not, and posts 0 (unknown).
		var total int64
		if ln, ok := src.(interface{ Len() int }); ok {
			total = int64(ln.Len())
		}
		opts.Progress.Stage("ingest", total)
		var err error
		if kept, err = ingest(&opts, src, corpus); err != nil {
			return fmt.Errorf("core: ingest: %w", err)
		}
		// A windowed store reader knows how many bytes of torn tail it
		// skipped; surface that in the report without coupling core to
		// the store package.
		if tr, ok := src.(interface{ TornBytes() int64 }); ok {
			report.TornBytes = tr.TornBytes()
		}
		return nil
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
	if err := stages.run("blocking", func(sp *trace.Span) error {
		blocking := opts.Blocking
		blocking.Trace = sp
		var err error
		blk, err = mfiblocks.RunCorpus(blocking, corpus)
		if err != nil {
			return fmt.Errorf("core: blocking: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	return resolve(&opts.Options, report, stages, work, blk)
}

// ingestBatchSize is how many records the ingest reader hands the
// preprocessing workers at a time, and ingestInFlight how many batches
// it may read ahead of the one being encoded: together they bound the
// records ingest holds beyond the corpus, whatever the worker count.
const (
	ingestBatchSize = 256
	ingestInFlight  = 8
)

// ingestBatch is one batch of records in flight: the reader fills recs,
// a worker preprocesses them in place and closes done.
type ingestBatch struct {
	recs []*record.Record
	done chan struct{}
}

// ingest reads src to its end into corpus and returns the records the run
// keeps — the preprocessed records under RetainRecords, skeletons
// otherwise — in source order. Preprocessing is the only per-record work
// that does not depend on the records before it, so it alone runs on the
// Workers pool: one goroutine reads the source into batches and posts
// progress per record read, the workers preprocess whole batches, and
// the calling goroutine interns and appends each batch in read order.
// Dictionary ids and frequencies, transactions, BookIDs and the kept
// records therefore follow record order at every width; width 1 runs one
// preprocessing goroutine. A source error ends the read; ingest returns
// it once every goroutine it started has exited.
func ingest(opts *StreamOptions, src RecordSource, corpus *mfiblocks.Corpus) ([]*record.Record, error) {
	prep := func(r *record.Record) *record.Record { return r }
	if opts.Preprocess {
		gaz := opts.Gazetteer
		if gaz == nil {
			gaz = gazetteer.Builtin(0)
		}
		prep = func(r *record.Record) *record.Record { return preprocessRecord(r, gaz) }
	}
	var kept []*record.Record
	encode := func(r *record.Record) {
		corpus.Append(corpus.Dict.Observe(r), r.BookID)
		if !opts.RetainRecords {
			// Skeleton: identity and provenance survive, item values are
			// dropped — the encoded transaction already carries
			// everything blocking needs.
			r = &record.Record{BookID: r.BookID, Source: r.Source, Kind: r.Kind}
		}
		kept = append(kept, r)
	}

	workers := opts.workers()
	// The reader sends each batch to the workers and, in read order, to
	// the encoder; it can run at most ingestInFlight batches ahead of it.
	// Every batch in order has been sent to the workers already, so the
	// encoder's wait on the oldest one always ends.
	todo := make(chan *ingestBatch, ingestInFlight)
	order := make(chan *ingestBatch, ingestInFlight)
	var readErr error
	var wg sync.WaitGroup
	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		defer close(order)
		defer close(todo)
		for {
			b := &ingestBatch{recs: make([]*record.Record, 0, ingestBatchSize), done: make(chan struct{})}
			for len(b.recs) < ingestBatchSize && readErr == nil {
				r, err := src.NextRecord()
				if err != nil {
					readErr = err
					break
				}
				b.recs = append(b.recs, r)
				opts.Progress.Add(1)
			}
			if len(b.recs) > 0 {
				todo <- b
				order <- b
			}
			if readErr != nil {
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for b := range todo {
				for i, r := range b.recs {
					b.recs[i] = prep(r)
				}
				close(b.done)
			}
		}()
	}
	for b := range order {
		<-b.done
		for _, r := range b.recs {
			encode(r)
		}
	}
	wg.Wait()
	if readErr != io.EOF {
		return nil, readErr
	}
	return kept, nil
}
