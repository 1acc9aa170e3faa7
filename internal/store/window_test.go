package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/record"
)

// writeStore persists records and returns the path and raw bytes.
func writeStore(t *testing.T, records []*record.Record) (string, []byte) {
	t.Helper()
	path := tmpPath(t)
	if err := WriteAll(path, records); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func genRecords(t *testing.T, persons int) []*record.Record {
	t.Helper()
	cfg := dataset.ItalyConfig()
	cfg.Persons = persons
	g, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g.Records
}

// TestWindowReaderMatchesAll asserts a strict and a Recover reader over an
// intact store, opened from the file and from an in-memory copy, each
// deliver exactly the written records in order and report no torn bytes.
func TestWindowReaderMatchesAll(t *testing.T) {
	records := genRecords(t, 120)
	path, data := writeStore(t, records)

	for _, opts := range [][]OpenOption{nil, {Recover}} {
		got, terminal := readFile(t, path, opts...)
		if terminal != io.EOF || !equalRecords(got, records) {
			t.Fatalf("file recover=%v: delivered %d of %d records, terminal %v", opts != nil, len(got), len(records), terminal)
		}

		w, err := newWindowReader(bytes.NewReader(data), int64(len(data)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, terminal = drain(w)
		if terminal != io.EOF || !equalRecords(got, records) {
			t.Fatalf("memory recover=%v: delivered %d of %d records, terminal %v", opts != nil, len(got), len(records), terminal)
		}
		if w.TornBytes() != 0 {
			t.Fatalf("memory recover=%v: TornBytes=%d on an intact store", opts != nil, w.TornBytes())
		}
	}
}

// TestWindowReaderNextRecord asserts the reader yields the written
// records in order, then io.EOF on this and every later call.
func TestWindowReaderNextRecord(t *testing.T) {
	records := genRecords(t, 40)
	path, _ := writeStore(t, records)
	w, err := OpenWindowReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := range records {
		r, err := w.NextRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(r, records[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
	for k := 0; k < 2; k++ {
		if r, err := w.NextRecord(); r != nil || err != io.EOF {
			t.Fatalf("call %d after last record: %v, %v, want nil, io.EOF", k, r, err)
		}
	}
}

// TestWindowReaderTornTail covers both torn-tail modes at every truncation
// point of the final frame: strict readers deliver the intact prefix then
// fail with a torn-tail diagnostic, on every later call too; Recover
// readers stop cleanly at the last whole frame and report the skipped
// bytes.
func TestWindowReaderTornTail(t *testing.T) {
	records := genRecords(t, 10)
	_, data := writeStore(t, records)
	ends := frameEnds(t, data)
	lastFrame := ends[len(ends)-2]

	for cut := lastFrame + 1; cut < int64(len(data)); cut += 3 {
		torn := data[:cut]

		// Strict: all whole frames, then the torn-tail error.
		w, err := newWindowReader(bytes.NewReader(torn), int64(len(torn)))
		if err != nil {
			t.Fatal(err)
		}
		got, terminal := drain(w)
		if !equalRecords(got, records[:len(records)-1]) {
			t.Fatalf("cut=%d strict: delivered %d, want the first %d", cut, len(got), len(records)-1)
		}
		var tt *tornTailError
		if !errors.As(terminal, &tt) {
			t.Fatalf("cut=%d strict: terminal error %v, want torn tail", cut, terminal)
		}
		if _, again := w.NextRecord(); again != terminal {
			t.Fatalf("cut=%d strict: later call returned %v, want the sticky %v", cut, again, terminal)
		}

		// Recover: clean EOF at the last whole frame, torn bytes reported.
		w, err = newWindowReader(bytes.NewReader(torn), int64(len(torn)), Recover)
		if err != nil {
			t.Fatal(err)
		}
		got, terminal = drain(w)
		if len(got) != len(records)-1 || terminal != io.EOF {
			t.Fatalf("cut=%d recover: delivered %d terminal %v", cut, len(got), terminal)
		}
		if want := cut - lastFrame; w.TornBytes() != want {
			t.Fatalf("cut=%d recover: TornBytes=%d, want %d", cut, w.TornBytes(), want)
		}
	}
}

// TestWindowReaderRejectsCorruption: content corruption is an error in
// both modes; a torn tail is an error only to a strict reader, and a
// Recover reader delivers the whole frames before it.
func TestWindowReaderRejectsCorruption(t *testing.T) {
	r := &record.Record{BookID: 1}
	r.Add(record.FirstName, "Guido")
	_, data := writeStore(t, []*record.Record{r})

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		ctor   bool // expected to fail at construction
		torn   int  // records a Recover reader delivers from a torn tail; -1 for content corruption
	}{
		{"bad magic", func(b []byte) []byte { b = append([]byte(nil), b...); b[0] = 'X'; return b }, true, -1},
		{"bad version", func(b []byte) []byte { b = append([]byte(nil), b...); b[4] = 99; return b }, true, -1},
		{"short header", func(b []byte) []byte { return b[:headerLen-1] }, true, -1},
		{"oversized frame length", func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[headerLen] = 0xFF
			b[headerLen+1] = 0xFF
			b[headerLen+2] = 0xFF
			b[headerLen+3] = 0xFF
			return b
		}, false, -1},
		{"undecodable frame", func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[headerLen+4+8] = 0xFF // invalid record kind
			return b
		}, false, -1},
		{"truncated frame", func(b []byte) []byte { return b[:len(b)-3] }, false, 0},
		{"trailing garbage frame len", func(b []byte) []byte { return append(append([]byte(nil), b...), 0xFF, 0xFF) }, false, 1},
	}
	for _, tc := range cases {
		bad := tc.mutate(data)
		for _, opts := range [][]OpenOption{nil, {Recover}} {
			recovering := opts != nil
			w, err := newWindowReader(bytes.NewReader(bad), int64(len(bad)), opts...)
			if tc.ctor {
				if err == nil {
					t.Errorf("%s: construction accepted corrupt store", tc.name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: unexpected construction error %v", tc.name, err)
			}
			got, terminal := drain(w)
			if recovering && tc.torn >= 0 {
				if terminal != io.EOF || len(got) != tc.torn {
					t.Errorf("%s (recover): delivered %d records, terminal %v; want %d and io.EOF", tc.name, len(got), terminal, tc.torn)
				}
				continue
			}
			if terminal == io.EOF || terminal == nil {
				t.Errorf("%s (recover=%v): corruption not surfaced", tc.name, recovering)
			}
		}
	}
}

// TestWindowReaderEmptyStore asserts a header-only store yields a clean
// EOF.
func TestWindowReaderEmptyStore(t *testing.T) {
	path, _ := writeStore(t, nil)
	got, terminal := readFile(t, path)
	if len(got) != 0 || terminal != io.EOF {
		t.Fatalf("empty store: delivered %d terminal %v", len(got), terminal)
	}
}

// drain consumes the reader and returns the records and the terminal
// error.
func drain(w *WindowReader) ([]*record.Record, error) {
	var out []*record.Record
	for {
		r, err := w.NextRecord()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}
