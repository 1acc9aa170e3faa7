// Package store writes and reads victim reports in the .yvst format — the
// persistence substrate a deployment keeps its records in between
// pipeline runs. The format is a length-prefixed binary log: a fixed
// header, then one framed record per report.
//
// Layout (little-endian):
//
//	header:  magic "YVST" | uint32 version
//	record:  uint32 frameLen | int64 bookID | uint8 kind |
//	         uint16 sourceLen | source bytes |
//	         uint16 itemCount | items (uint8 type | uint16 valueLen | value)
//
// WriteAll is the one writer: it stages the whole file beside the target
// and renames it into place after an fsync, so a crashed writer never
// leaves a half-written store under the final name. WindowReader is the
// one reader: a single forward pass that never writes the file, so a
// store on a read-only mount reads like any other. A file cut short
// elsewhere (an interrupted copy, a full disk) ends in a torn tail — a
// truncated length prefix or a partial frame; a strict reader reports it
// after the whole frames before it, and a reader opened with Recover
// stops at the last whole frame and counts the bytes it skipped. Frame
// lengths are capped at MaxFrameLen, so a corrupt length prefix is
// diagnosed instead of driving an arbitrary allocation. The store keeps
// no BookID index: record.NewCollection rejects a repeated BookID
// downstream.
//
// Open is how a command opens any records file: a .yvst path through a
// recovering WindowReader, any other path through record.JSONLReader.
// Load drains what Open yields into a collection.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/record"
)

var magic = [4]byte{'Y', 'V', 'S', 'T'}

// Version is the current format version.
const Version = 1

// headerLen is the byte length of the file header (magic + version).
const headerLen = 8

// MaxFrameLen caps a single record frame. Encoded records are far
// smaller in practice (sources and values are uint16-length bounded);
// the cap exists so a corrupt length prefix yields a precise error
// instead of a multi-gigabyte allocation.
const MaxFrameLen = 16 << 20

func encodeRecord(r *record.Record) ([]byte, error) {
	if len(r.Source) > 0xFFFF {
		return nil, fmt.Errorf("store: source of record %d too long (%d)", r.BookID, len(r.Source))
	}
	if len(r.Items) > 0xFFFF {
		return nil, fmt.Errorf("store: record %d has too many items (%d)", r.BookID, len(r.Items))
	}
	size := 8 + 1 + 2 + len(r.Source) + 2
	for _, it := range r.Items {
		if len(it.Value) > 0xFFFF {
			return nil, fmt.Errorf("store: record %d item value too long", r.BookID)
		}
		size += 1 + 2 + len(it.Value)
	}
	if size > MaxFrameLen {
		return nil, fmt.Errorf("store: record %d frame is %d bytes, exceeds cap %d", r.BookID, size, MaxFrameLen)
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint64(out, uint64(r.BookID))
	out = append(out, byte(r.Kind))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Source)))
	out = append(out, r.Source...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Items)))
	for _, it := range r.Items {
		out = append(out, byte(it.Type))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(it.Value)))
		out = append(out, it.Value...)
	}
	return out, nil
}

func decodeRecord(frame []byte) (*record.Record, error) {
	r := &record.Record{}
	if len(frame) < 13 {
		return nil, fmt.Errorf("store: truncated record frame (%d bytes)", len(frame))
	}
	r.BookID = int64(binary.LittleEndian.Uint64(frame[0:8]))
	kind := frame[8]
	if kind > uint8(record.List) {
		return nil, fmt.Errorf("store: record %d has invalid kind %d", r.BookID, kind)
	}
	r.Kind = record.SourceKind(kind)
	pos := 9
	srcLen := int(binary.LittleEndian.Uint16(frame[pos : pos+2]))
	pos += 2
	if pos+srcLen+2 > len(frame) {
		return nil, fmt.Errorf("store: record %d source overruns frame", r.BookID)
	}
	r.Source = string(frame[pos : pos+srcLen])
	pos += srcLen
	itemCount := int(binary.LittleEndian.Uint16(frame[pos : pos+2]))
	pos += 2
	for k := 0; k < itemCount; k++ {
		if pos+3 > len(frame) {
			return nil, fmt.Errorf("store: record %d item %d truncated", r.BookID, k)
		}
		t := frame[pos]
		if int(t) >= record.NumItemTypes {
			return nil, fmt.Errorf("store: record %d has invalid item type %d", r.BookID, t)
		}
		vLen := int(binary.LittleEndian.Uint16(frame[pos+1 : pos+3]))
		pos += 3
		if pos+vLen > len(frame) {
			return nil, fmt.Errorf("store: record %d item %d value overruns frame", r.BookID, k)
		}
		r.Items = append(r.Items, record.Item{Type: record.ItemType(t), Value: string(frame[pos : pos+vLen])})
		pos += vLen
	}
	if pos != len(frame) {
		return nil, fmt.Errorf("store: record %d frame has %d trailing bytes", r.BookID, len(frame)-pos)
	}
	return r, nil
}

// WriteAll stores a record slice atomically: it writes a temp file in
// the target's directory, fsyncs it, and renames it over the target, so
// a crash mid-write leaves either the old file or the new one — never a
// half-written store under the final name.
func WriteAll(path string, records []*record.Record) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	// Any failure before the rename removes the temp file; the target is
	// untouched either way.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	// A bufio.Writer keeps its first write error and returns it from
	// Flush, so the writes below are checked there.
	buf := bufio.NewWriter(tmp)
	var word [4]byte
	buf.Write(magic[:])
	binary.LittleEndian.PutUint32(word[:], Version)
	buf.Write(word[:])
	for _, r := range records {
		frame, err := encodeRecord(r)
		if err != nil {
			return fail(err)
		}
		binary.LittleEndian.PutUint32(word[:], uint32(len(frame)))
		buf.Write(word[:])
		buf.Write(frame)
	}
	if err := buf.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	// Persist the rename itself. Directory fsync is advisory on some
	// platforms; failure to open the directory is not fatal.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
