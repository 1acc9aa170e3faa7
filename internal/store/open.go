package store

import (
	"os"
	"strings"

	"repro/internal/record"
)

// Source is an open records file, read forward one record at a time; it
// satisfies core.RecordSource. TornBytes is the tail a .yvst store
// skipped once its end was reached, always zero for JSONL.
type Source interface {
	NextRecord() (*record.Record, error)
	TornBytes() int64
	Close() error
}

// Open is the one way a command opens a records file: a .yvst path
// through a WindowReader with Recover, any other path as JSONL. Neither
// writes the file.
func Open(path string) (Source, error) {
	if strings.HasSuffix(path, ".yvst") {
		return OpenWindowReader(path, Recover)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return jsonlFile{record.NewJSONLReader(f), f}, nil
}

type jsonlFile struct {
	*record.JSONLReader
	*os.File
}

func (jsonlFile) TornBytes() int64 { return 0 }

// Load drains the records file at path into a collection, for callers
// that hold every record, and returns the torn-tail bytes a .yvst store
// skipped for the caller to report.
func Load(path string) (*record.Collection, int64, error) {
	src, err := Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer src.Close()
	records, err := record.ReadAll(src)
	if err != nil {
		return nil, 0, err
	}
	coll, err := record.NewCollection(records)
	return coll, src.TornBytes(), err
}
