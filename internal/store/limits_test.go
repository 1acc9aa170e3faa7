package store

import (
	"strings"
	"testing"

	"repro/internal/record"
)

func TestEncodeLimits(t *testing.T) {
	long := strings.Repeat("x", 0x10000)

	r := &record.Record{BookID: 1, Source: long}
	if _, err := encodeRecord(r); err == nil {
		t.Error("over-long source accepted")
	}

	r = &record.Record{BookID: 2}
	r.Add(record.FirstName, long)
	if _, err := encodeRecord(r); err == nil {
		t.Error("over-long item value accepted")
	}
}

func TestDecodeRejectsInvalidKindAndType(t *testing.T) {
	r := &record.Record{BookID: 5, Kind: record.Testimony}
	r.Add(record.FirstName, "x")
	frame, err := encodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the kind byte.
	bad := append([]byte(nil), frame...)
	bad[8] = 99
	if _, err := decodeRecord(bad); err == nil {
		t.Error("invalid kind accepted")
	}
	// Corrupt the item type byte (offset: 8 id + 1 kind + 2 srclen + 0 src + 2 count = 13).
	bad = append([]byte(nil), frame...)
	bad[13] = 0xFE
	if _, err := decodeRecord(bad); err == nil {
		t.Error("invalid item type accepted")
	}
	// Short frame.
	if _, err := decodeRecord(frame[:5]); err == nil {
		t.Error("short frame accepted")
	}
}
