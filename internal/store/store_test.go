package store

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/record"
)

func tmpPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "records.yvst")
}

// readFile reads every record of the store at path and returns them with
// the reader's terminal error (io.EOF after a clean end).
func readFile(t *testing.T, path string, opts ...OpenOption) ([]*record.Record, error) {
	t.Helper()
	w, err := OpenWindowReader(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	return drain(w)
}

// equalRecords reports whether a and b hold equal records in the same
// order; a nil and an empty slice are equal.
func equalRecords(a, b []*record.Record) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func TestRoundTrip(t *testing.T) {
	cfg := dataset.ItalyConfig()
	cfg.Persons = 200
	g, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := tmpPath(t)
	if err := WriteAll(path, g.Records); err != nil {
		t.Fatal(err)
	}

	// One forward pass preserves order and content.
	got, terminal := readFile(t, path)
	if terminal != io.EOF {
		t.Fatalf("terminal error %v, want io.EOF", terminal)
	}
	if len(got) != len(g.Records) {
		t.Fatalf("read %d of %d records", len(got), len(g.Records))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], g.Records[i]) {
			t.Fatalf("record %d round-trip mismatch:\n%v\n%v", i, got[i], g.Records[i])
		}
	}
}

func TestEmptyValuesAndUnicode(t *testing.T) {
	path := tmpPath(t)
	r := &record.Record{BookID: 1, Source: "submitter:Мария Коган:Київ", Kind: record.Testimony}
	r.Add(record.FirstName, "Марія")
	r.Add(record.LastName, "קוגן")
	if err := WriteAll(path, []*record.Record{r}); err != nil {
		t.Fatal(err)
	}
	got, terminal := readFile(t, path)
	if terminal != io.EOF || len(got) != 1 {
		t.Fatalf("read %d records, terminal %v", len(got), terminal)
	}
	if !reflect.DeepEqual(got[0], r) {
		t.Errorf("unicode round trip failed:\n%v\n%v", got[0], r)
	}
}

// TestOpenRejectsCorruption asserts a strict reader opened on a corrupt
// file fails, at OpenWindowReader or on a later read, and never reports a
// clean end.
func TestOpenRejectsCorruption(t *testing.T) {
	path := tmpPath(t)
	r := &record.Record{BookID: 1}
	r.Add(record.FirstName, "Guido")
	if err := WriteAll(path, []*record.Record{r}); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b = append([]byte(nil), b...); b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b = append([]byte(nil), b...); b[4] = 99; return b }},
		{"truncated frame", func(b []byte) []byte { return b[:len(b)-3] }},
		{"trailing garbage frame len", func(b []byte) []byte { return append(append([]byte(nil), b...), 0xFF, 0xFF) }},
	}
	for _, tc := range cases {
		bad := path + "-" + tc.name
		if err := os.WriteFile(bad, tc.mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWindowReader(bad)
		if err != nil {
			continue
		}
		_, terminal := drain(w)
		w.Close()
		if terminal == io.EOF {
			t.Errorf("%s: strict reader accepted corrupt file", tc.name)
		}
	}
}
