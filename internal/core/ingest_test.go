package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/store"
)

// ingested is everything the ingest stage produces, read back for
// comparison: the dictionary (each source record's preprocessed items
// encoded, the type per id, and the ids the pruning rule picks by
// frequency), the transactions, the BookIDs and the kept records.
type ingested struct {
	encoded [][]int
	types   []record.ItemType
	pruned  [][]int
	txns    [][]int32
	bookIDs []int64
	kept    []*record.Record
}

// runIngest runs the ingest stage over src, which yields records.
func runIngest(t *testing.T, opts StreamOptions, src RecordSource, records []*record.Record) ingested {
	t.Helper()
	corpus := &mfiblocks.Corpus{Dict: record.NewDictionary()}
	kept, err := ingest(&opts, src, corpus)
	if err != nil {
		t.Fatal(err)
	}
	return readIngested(opts, corpus, kept, records)
}

// serialIngest is the reference ingest: each record preprocessed,
// interned and appended in order, on the calling goroutine.
func serialIngest(opts StreamOptions, records []*record.Record) ingested {
	corpus := &mfiblocks.Corpus{Dict: record.NewDictionary()}
	var kept []*record.Record
	for _, r := range records {
		r = preprocessRecord(r, opts.Gazetteer)
		corpus.Append(corpus.Dict.Observe(r), r.BookID)
		if !opts.RetainRecords {
			r = &record.Record{BookID: r.BookID, Source: r.Source, Kind: r.Kind}
		}
		kept = append(kept, r)
	}
	return readIngested(opts, corpus, kept, records)
}

// readIngested reads the corpus back. Encoding every source record maps
// each item the records carry to its id, and so the dictionary's keys;
// the frequencies are read through the pruning rule, at fractions from
// its own up to half the items.
func readIngested(opts StreamOptions, corpus *mfiblocks.Corpus, kept, records []*record.Record) ingested {
	var out ingested
	for _, r := range records {
		out.encoded = append(out.encoded, corpus.Dict.Encode(preprocessRecord(r, opts.Gazetteer)))
	}
	for id := 0; id < corpus.Dict.Len(); id++ {
		out.types = append(out.types, corpus.Dict.TypeOf(id))
	}
	for _, f := range []float64{opts.Blocking.PruneFraction, 0.01, 0.1, 0.5} {
		ids := corpus.Dict.MostFrequent(f)
		slices.Sort(ids)
		out.pruned = append(out.pruned, ids)
	}
	for i := 0; i < corpus.Len(); i++ {
		out.txns = append(out.txns, corpus.Txns.Txn(i))
	}
	out.bookIDs, out.kept = corpus.BookIDs, kept
	return out
}

// TestIngestWorkersEquivalence pins the pooled ingest stage to a serial
// reference loop: from a .yvst store reader, a JSONL reader and a
// CollectionSource, with records retained and as skeletons, at Workers
// 1, 2 and 8, the dictionary (every item's id, the type per id and the
// frequency-pruned ids), the
// transactions, the BookIDs and the kept records equal the reference's.
// The corpus spans more batches than the reader may hold in flight, so
// the reader has to wait for the encoder; one RunStream over the store
// at eight workers must then rank exactly the spec's matches.
func TestIngestWorkersEquivalence(t *testing.T) {
	g := equivDataset(t, 1400, 4040)
	if n, in := g.Collection.Len(), ingestBatchSize*(ingestInFlight+2); n <= in {
		t.Fatalf("fixture has %d records, want more than the %d ingest can hold in flight", n, in)
	}
	path := filepath.Join(t.TempDir(), "records.yvst")
	if err := store.WriteAll(path, g.Collection.Records); err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	if err := record.WriteJSONL(&jsonl, g.Collection.Records); err != nil {
		t.Fatal(err)
	}
	sources := map[string]func() RecordSource{
		"collection": func() RecordSource { return NewCollectionSource(g.Collection) },
		"jsonl":      func() RecordSource { return record.NewJSONLReader(bytes.NewReader(jsonl.Bytes())) },
		"yvst": func() RecordSource {
			src, err := store.OpenWindowReader(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { src.Close() })
			return src
		},
	}
	base := Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Preprocess: true, Gazetteer: g.Gaz, SameSrc: true}
	for _, retain := range []bool{true, false} {
		serial := StreamOptions{Options: base, RetainRecords: retain}
		serial.Workers = 1
		want := serialIngest(serial, g.Collection.Records)
		for name, open := range sources {
			for _, workers := range []int{1, 2, 8} {
				opts := serial
				opts.Workers = workers
				if got := runIngest(t, opts, open(), g.Collection.Records); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s retain=%v workers=%d: ingest output diverges from the serial reference", name, retain, workers)
				}
			}
		}
	}
	checkRow(t, specPipeline(t, base, g.Collection), base, g.Collection, fromStore(g.Collection), false, 8)
}

// faultAfterK yields the collection's first k records, then fails.
type faultAfterK struct {
	*CollectionSource
	k int
}

var errSource = errors.New("source failed")

func (s *faultAfterK) NextRecord() (*record.Record, error) {
	if s.pos >= s.k {
		return nil, errSource
	}
	return s.CollectionSource.NextRecord()
}

// TestIngestSourceFault is the ingest stage's fault seam: a source that
// fails after k records — none, one, and either side of a batch boundary
// — fails the run with a "core: ingest:" error wrapping the source's,
// and leaves no goroutine behind, at every worker count. A JSONL stream
// whose line k+1 is malformed fails the same way, naming that line. A
// recovering reader over a torn .yvst still reports the bytes it
// skipped.
func TestIngestSourceFault(t *testing.T) {
	g := equivDataset(t, 300, 77)
	opts := StreamOptions{Options: Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Preprocess: true, Gazetteer: g.Gaz, SameSrc: true}}
	start := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 8} {
		opts.Workers = workers
		for _, k := range []int{0, 1, ingestBatchSize - 1, ingestBatchSize, ingestBatchSize + 1} {
			src := &faultAfterK{CollectionSource: NewCollectionSource(g.Collection), k: k}
			_, err := RunStream(opts, src)
			if !errors.Is(err, errSource) || !strings.HasPrefix(err.Error(), "core: ingest: ") {
				t.Fatalf("workers=%d k=%d: err = %v, want core: ingest: wrapping %v", workers, k, err, errSource)
			}
			waitGoroutines(t, start, fmt.Sprintf("workers=%d k=%d", workers, k))

			var jsonl bytes.Buffer
			if err := record.WriteJSONL(&jsonl, g.Collection.Records[:k]); err != nil {
				t.Fatal(err)
			}
			jsonl.WriteString("{\"book_id\": \n")
			if err := record.WriteJSONL(&jsonl, g.Collection.Records[k:]); err != nil {
				t.Fatal(err)
			}
			_, err = RunStream(opts, record.NewJSONLReader(&jsonl))
			var syntaxErr *json.SyntaxError
			prefix := fmt.Sprintf("core: ingest: record: line %d: ", k+1)
			if !errors.As(err, &syntaxErr) || !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("workers=%d k=%d: JSONL err = %v, want %q wrapping a JSON syntax error", workers, k, err, prefix)
			}
			waitGoroutines(t, start, fmt.Sprintf("workers=%d k=%d JSONL", workers, k))
		}
	}

	path := filepath.Join(t.TempDir(), "records.yvst")
	if err := store.WriteAll(path, g.Collection.Records); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		src, err := store.OpenWindowReader(path, store.Recover)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = workers
		res, err := RunStream(opts, src)
		src.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.TornBytes == 0 || res.Report.TornBytes != src.TornBytes() {
			t.Fatalf("workers=%d: report TornBytes = %d, reader skipped %d", workers, res.Report.TornBytes, src.TornBytes())
		}
		if res.Report.Records != g.Collection.Len()-1 {
			t.Fatalf("workers=%d: records = %d, want %d", workers, res.Report.Records, g.Collection.Len()-1)
		}
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// want: a goroutine that has signalled its WaitGroup may not have
// returned yet, so the count is polled briefly.
func waitGoroutines(t *testing.T, want int, label string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the run", label, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEmptyInput: a source with no records is a valid input at every
// worker count — from a collection and from a .yvst file, batch and
// streamed — and resolves to nothing.
func TestEmptyInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.yvst")
	if err := store.WriteAll(path, nil); err != nil {
		t.Fatal(err)
	}
	empty, err := record.NewCollection(nil)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Blocking: mfiblocks.NewConfig(), Preprocess: true, SameSrc: true}
	for _, workers := range []int{1, 2} {
		base.Workers = workers
		res, err := Run(base, empty)
		if err != nil {
			t.Fatalf("workers=%d: batch: %v", workers, err)
		}
		checkEmpty(t, fmt.Sprintf("workers=%d batch", workers), res)

		src, err := store.OpenWindowReader(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err = RunStream(StreamOptions{Options: base}, src)
		src.Close()
		if err != nil {
			t.Fatalf("workers=%d: yvst: %v", workers, err)
		}
		checkEmpty(t, fmt.Sprintf("workers=%d yvst", workers), res)
	}
}

// TestDuplicateBookIDRejected: the store keeps no BookID index, so a
// .yvst file that repeats a BookID streams through the reader and the
// run fails at the collection, naming the ID, with records retained or
// not.
func TestDuplicateBookIDRejected(t *testing.T) {
	var records []*record.Record
	for _, id := range []int64{5, 7, 9, 7} {
		r := &record.Record{BookID: id, Source: fmt.Sprintf("list-%d", id), Kind: record.List}
		r.Add(record.FirstName, "Guido")
		r.Add(record.LastName, "Foa")
		records = append(records, r)
	}
	path := filepath.Join(t.TempDir(), "dup.yvst")
	if err := store.WriteAll(path, records); err != nil {
		t.Fatal(err)
	}
	base := Options{Blocking: mfiblocks.NewConfig(), Preprocess: true, SameSrc: true, Workers: 2}
	for _, retain := range []bool{false, true} {
		src, err := store.OpenWindowReader(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunStream(StreamOptions{Options: base, RetainRecords: retain}, src)
		src.Close()
		if err == nil || !strings.Contains(err.Error(), "duplicate BookID 7") {
			t.Fatalf("retain=%v: err = %v, want a duplicate BookID 7 error", retain, err)
		}
	}
}

func checkEmpty(t *testing.T, label string, res *Resolution) {
	t.Helper()
	if len(res.Matches) != 0 || res.Collection.Len() != 0 || res.Report.Records != 0 || len(res.Blocking.Blocks) != 0 {
		t.Fatalf("%s: %d matches, %d records, %d blocks from an empty input", label, len(res.Matches), res.Collection.Len(), len(res.Blocking.Blocks))
	}
	if got := res.Clusters(0.3); len(got) != 0 {
		t.Fatalf("%s: %d clusters from an empty input", label, len(got))
	}
}
