package store

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/record"
)

// FuzzWindowReader drives the reader over arbitrary store bytes — valid
// stores, torn truncations at every boundary, and raw garbage — and
// asserts the streaming contract: the reader never panics, a Recover
// reader never reports an error other than io.EOF for pure tail damage,
// every record either reader delivers is canonical (it re-encodes to the
// exact frame bytes the store carried), the terminal error is sticky, and
// both modes deliver the same records.
func FuzzWindowReader(f *testing.F) {
	// Seed with a well-formed store, its truncations, and noise.
	var buf bytes.Buffer
	buf.Write(magic[:])
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], Version)
	buf.Write(ver[:])
	for i := 0; i < 3; i++ {
		r := &record.Record{BookID: int64(i + 1), Source: "list-1", Kind: record.List}
		r.Add(record.FirstName, "Guido")
		r.Add(record.LastName, "Foa")
		frame, err := encodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		var fl [4]byte
		binary.LittleEndian.PutUint32(fl[:], uint32(len(frame)))
		buf.Write(fl[:])
		buf.Write(frame)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	for _, cut := range []int{0, 7, 8, 9, 11, 12, len(valid) / 2, len(valid) - 1} {
		if cut <= len(valid) {
			f.Add(append([]byte(nil), valid[:cut]...))
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		type outcome struct {
			records [][]byte // re-encoded frames, in order
			torn    int64
			errEOF  bool
		}
		read := func(recoverTail bool) (outcome, bool) {
			var opts []OpenOption
			if recoverTail {
				opts = append(opts, Recover)
			}
			w, err := newWindowReader(bytes.NewReader(data), int64(len(data)), opts...)
			if err != nil {
				return outcome{}, false
			}
			var out outcome
			for {
				r, err := w.NextRecord()
				if err != nil {
					out.errEOF = err == io.EOF
					if recoverTail && !out.errEOF {
						// A Recover reader may fail only on content
						// corruption; torn tails must end in io.EOF.
						var tt *tornTailError
						if ok := asTorn(err, &tt); ok {
							t.Fatalf("recover reader surfaced torn tail: %v", err)
						}
					}
					if r2, again := w.NextRecord(); r2 != nil || again != err {
						t.Fatalf("terminal error not sticky: %v, then %v", err, again)
					}
					break
				}
				frame, encErr := encodeRecord(r)
				if encErr != nil {
					t.Fatalf("delivered record does not re-encode: %v", encErr)
				}
				out.records = append(out.records, frame)
			}
			out.torn = w.TornBytes()
			return out, true
		}

		recovered, ok := read(true)
		if !ok {
			// Header rejected: strict mode must reject identically.
			if _, okStrict := read(false); okStrict {
				t.Fatal("strict reader accepted a header the recover reader rejected")
			}
			return
		}
		// Strict mode delivers the same records; it may only differ in the
		// terminal error when the tail is torn.
		strict, ok := read(false)
		if !ok {
			t.Fatal("strict reader rejected a header the recover reader accepted")
		}
		if len(strict.records) != len(recovered.records) {
			t.Fatalf("strict delivered %d records, recover delivered %d", len(strict.records), len(recovered.records))
		}
		for i := range strict.records {
			if !bytes.Equal(strict.records[i], recovered.records[i]) {
				t.Fatalf("record %d differs between modes", i)
			}
		}
		if strict.torn != 0 {
			t.Fatalf("strict reader reported %d torn bytes", strict.torn)
		}
	})
}

// asTorn reports whether err is a tornTailError, assigning it to target.
func asTorn(err error, target **tornTailError) bool {
	tt, ok := err.(*tornTailError)
	if ok {
		*target = tt
	}
	return ok
}
