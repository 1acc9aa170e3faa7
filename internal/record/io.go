package record

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// jsonRecord is the wire form of a record: items are flattened to
// "prefix:value" keys so the encoding is stable across ItemType renumbering.
type jsonRecord struct {
	BookID int64    `json:"book_id"`
	Source string   `json:"source"`
	Kind   string   `json:"kind"`
	Items  []string `json:"items"`
}

// WriteJSONL writes records as JSON Lines, one record per line.
func WriteJSONL(w io.Writer, records []*Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range records {
		jr := jsonRecord{
			BookID: r.BookID,
			Source: r.Source,
			Kind:   r.Kind.String(),
			Items:  make([]string, len(r.Items)),
		}
		for i, it := range r.Items {
			jr.Items[i] = it.Key()
		}
		if err := enc.Encode(&jr); err != nil {
			return fmt.Errorf("record: encode %d: %w", r.BookID, err)
		}
	}
	return bw.Flush()
}

// maxJSONLLine is the longest JSONL line the reader accepts.
const maxJSONLLine = 16 * 1024 * 1024

// JSONLReader streams records written by WriteJSONL, one per NextRecord
// call. Blank lines are skipped; every error names the line it stopped
// on.
type JSONLReader struct {
	sc   *bufio.Scanner
	line int
}

// NewJSONLReader reads JSON Lines records from r.
func NewJSONLReader(r io.Reader) *JSONLReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxJSONLLine)
	return &JSONLReader{sc: sc}
}

// NextRecord parses the next non-blank line — the shape
// core.RecordSource expects. It returns io.EOF at the end of the input;
// a caller stops at the first error.
func (j *JSONLReader) NextRecord() (*Record, error) {
	for j.sc.Scan() {
		j.line++
		text := bytes.TrimSpace(j.sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var jr jsonRecord
		if err := json.Unmarshal(text, &jr); err != nil {
			return nil, fmt.Errorf("record: line %d: %w", j.line, err)
		}
		rec := &Record{BookID: jr.BookID, Source: jr.Source}
		if jr.Kind == List.String() {
			rec.Kind = List
		}
		for _, key := range jr.Items {
			it, err := ParseItemKey(key)
			if err != nil {
				return nil, fmt.Errorf("record: line %d: %w", j.line, err)
			}
			rec.Items = append(rec.Items, it)
		}
		return rec, nil
	}
	if err := j.sc.Err(); err != nil {
		// The scanner stopped inside the line after the last one it
		// returned: an over-long line or a read error.
		return nil, fmt.Errorf("record: line %d: %w", j.line+1, err)
	}
	return nil, io.EOF
}

// ReadJSONL reads every record written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]*Record, error) {
	return ReadAll(NewJSONLReader(r))
}

// ReadAll drains a record stream to its end (io.EOF) and returns its
// records in order.
func ReadAll(src interface{ NextRecord() (*Record, error) }) ([]*Record, error) {
	var records []*Record
	for {
		r, err := src.NextRecord()
		if err == io.EOF {
			return records, nil
		}
		if err != nil {
			return nil, err
		}
		records = append(records, r)
	}
}

// ParseItemKey parses a canonical "prefix:value" item key.
func ParseItemKey(key string) (Item, error) {
	i := strings.IndexByte(key, ':')
	if i < 0 {
		return Item{}, fmt.Errorf("record: malformed item key %q", key)
	}
	t, ok := TypeForPrefix(key[:i])
	if !ok {
		return Item{}, fmt.Errorf("record: unknown item prefix %q", key[:i])
	}
	return Item{Type: t, Value: key[i+1:]}, nil
}
