package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/record"
)

// smallRecords builds a handful of records with distinct sizes so frame
// boundaries land at irregular offsets.
func smallRecords() []*record.Record {
	var out []*record.Record
	names := []string{"Guido", "Alessandra", "Foa", "Моше", "קוגן"}
	for i, name := range names {
		r := &record.Record{BookID: int64(1000 + i), Source: "page-of-testimony", Kind: record.Testimony}
		r.Add(record.FirstName, name)
		if i%2 == 0 {
			r.Add(record.LastName, strings.Repeat("x", i*7+1))
		}
		out = append(out, r)
	}
	return out
}

// frameEnds returns the byte offset just past each whole frame, starting
// with the header end — the set of clean truncation points.
func frameEnds(t *testing.T, data []byte) []int64 {
	t.Helper()
	ends := []int64{headerLen}
	offset := int64(headerLen)
	for offset < int64(len(data)) {
		frameLen := int64(binary.LittleEndian.Uint32(data[offset : offset+4]))
		offset += 4 + frameLen
		if offset > int64(len(data)) {
			t.Fatalf("reference scan overran file at %d", offset)
		}
		ends = append(ends, offset)
	}
	return ends
}

// TestRecoverFromArbitraryTruncation cuts a store at every byte offset
// past the header. A strict reader delivers the records whose frames
// precede the cut, then io.EOF at a frame boundary and a torn-tail error
// anywhere else; a Recover reader delivers the same records, ends in
// io.EOF and counts the bytes past the last whole frame. Neither changes
// the file, which is read-only.
func TestRecoverFromArbitraryTruncation(t *testing.T) {
	records := smallRecords()
	path := tmpPath(t)
	if err := WriteAll(path, records); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, data)
	wholeBefore := func(cut int64) int {
		n := 0
		for i, end := range ends[1:] {
			if end <= cut {
				n = i + 1
			}
		}
		return n
	}

	dir := t.TempDir()
	for cut := int64(headerLen); cut < int64(len(data)); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.yvst", cut))
		if err := os.WriteFile(torn, data[:cut], 0o444); err != nil {
			t.Fatal(err)
		}
		want := wholeBefore(cut)
		clean := ends[want] == cut

		got, terminal := readFile(t, torn)
		if !equalRecords(got, records[:want]) {
			t.Fatalf("cut at %d: strict reader delivered %d records, want the %d before the cut", cut, len(got), want)
		}
		var tt *tornTailError
		if clean && terminal != io.EOF {
			t.Fatalf("cut at %d: strict reader rejected a clean prefix: %v", cut, terminal)
		}
		if !clean && !errors.As(terminal, &tt) {
			t.Fatalf("cut at %d: strict reader ended with %v, want a torn tail", cut, terminal)
		}

		w, err := OpenWindowReader(torn, Recover)
		if err != nil {
			t.Fatalf("cut at %d: OpenWindowReader(Recover): %v", cut, err)
		}
		got, terminal = drain(w)
		w.Close()
		if terminal != io.EOF {
			t.Fatalf("cut at %d: Recover reader ended with %v, want io.EOF", cut, terminal)
		}
		if !equalRecords(got, records[:want]) {
			t.Fatalf("cut at %d: recovered %d records, want the %d before the cut", cut, len(got), want)
		}
		if skipped := cut - ends[want]; w.TornBytes() != skipped {
			t.Fatalf("cut at %d: TornBytes = %d, want %d", cut, w.TornBytes(), skipped)
		}

		after, err := os.ReadFile(torn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, data[:cut]) {
			t.Fatalf("cut at %d: reading changed the file (%d bytes, was %d)", cut, len(after), cut)
		}
	}
}

func TestTornTailDiagnostics(t *testing.T) {
	records := smallRecords()
	path := tmpPath(t)
	if err := WriteAll(path, records); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, data)

	cases := []struct {
		name string
		cut  int64
		want string
	}{
		{"truncated length prefix", ends[2] + 2, "truncated length prefix"},
		{"partial frame", ends[2] + 10, "partial frame"},
	}
	for _, tc := range cases {
		torn := filepath.Join(t.TempDir(), "torn.yvst")
		if err := os.WriteFile(torn, data[:tc.cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readFile(t, torn)
		if err == io.EOF {
			t.Fatalf("%s: strict reader accepted the file", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestOversizedFrameLenRejected: a complete but absurd length prefix is
// content corruption, not a torn tail — both modes fail, and neither
// attempts the allocation the prefix asks for.
func TestOversizedFrameLenRejected(t *testing.T) {
	path := tmpPath(t)
	if err := WriteAll(path, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(MaxFrameLen+1))
	data = append(data, prefix[:]...)
	data = append(data, []byte("junk")...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]OpenOption{nil, {Recover}} {
		got, err := readFile(t, path, opts...)
		if len(got) != 0 || err == io.EOF {
			t.Fatalf("reader (%d opts) accepted an oversized frame length", len(opts))
		}
		if !strings.Contains(err.Error(), "exceeds cap") {
			t.Errorf("error %q does not mention the cap", err)
		}
	}
}

// TestWriteAllAtomic: a WriteAll that fails mid-stream leaves the
// previous file untouched and no temp files behind; a successful one
// leaves exactly the target.
func TestWriteAllAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "records.yvst")
	old := smallRecords()
	if err := WriteAll(path, old); err != nil {
		t.Fatal(err)
	}

	bad := &record.Record{BookID: 9999, Source: strings.Repeat("s", 0x10000)}
	if err := WriteAll(path, []*record.Record{bad}); err == nil {
		t.Fatal("WriteAll accepted an unencodable record")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "records.yvst" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory after failed WriteAll: %v", names)
	}

	got, terminal := readFile(t, path)
	if terminal != io.EOF {
		t.Fatalf("original file damaged by failed WriteAll: %v", terminal)
	}
	if !reflect.DeepEqual(got, old) {
		t.Errorf("original file holds %d records, want the %d written before the failed WriteAll", len(got), len(old))
	}
}
