package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/record"
)

// TestOpenPicksFormatBySuffix: Open reads a .yvst path as a store and any
// other path as JSONL, and Load drains either into the same collection. A
// torn store loads its whole frames and reports the skipped bytes; JSONL
// has no torn tail, and a .yvst name on JSONL bytes is a bad store.
func TestOpenPicksFormatBySuffix(t *testing.T) {
	records := genRecords(t, 40)
	yvst, data := writeStore(t, records)
	var jsonl bytes.Buffer
	if err := record.WriteJSONL(&jsonl, records); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, path := range []string{yvst, write("records.jsonl", jsonl.Bytes()), write("records.txt", jsonl.Bytes())} {
		coll, torn, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if torn != 0 || !equalRecords(coll.Records, records) {
			t.Fatalf("%s: torn=%d, %d records, want the %d written", path, torn, coll.Len(), len(records))
		}
	}

	coll, torn, err := Load(write("torn.yvst", data[:len(data)-3]))
	if err != nil || torn == 0 || !equalRecords(coll.Records, records[:len(records)-1]) {
		t.Fatalf("torn store: err=%v torn=%d", err, torn)
	}
	if _, _, err := Load(write("mislabelled.yvst", jsonl.Bytes())); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("JSONL under a .yvst name: err = %v, want bad magic", err)
	}
	if _, _, err := Load(filepath.Join(dir, "missing.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("missing file: err = %v", err)
	}
}
