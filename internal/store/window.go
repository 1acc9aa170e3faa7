package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/record"
)

// WindowReader streams a store's records forward, one decoded frame per
// NextRecord call. It is the package's only reader: it makes exactly one
// sequential pass, holds one frame buffer, opens the file read-only and
// never writes it, and builds no BookID index (callers that need
// duplicate detection get it from the collection or corpus they assemble
// downstream).
//
// Torn tails — a truncated length prefix or a partial final frame — are
// handled per mode: a strict reader surfaces the torn tail as an error
// once every whole frame before it has been delivered, while a reader
// opened with the Recover option stops cleanly at the last whole frame
// and reports the skipped byte count through TornBytes. Content
// corruption (bad magic, an oversized frame length, a frame that fails to
// decode) is an error in both modes: dropping a suffix cannot mend it.
type WindowReader struct {
	src     *bufio.Reader
	size    int64
	offset  int64
	recover bool
	err     error // sticky terminal error; io.EOF once exhausted
	torn    int64
	lenBuf  [4]byte
	frame   []byte
	file    *os.File // owned when opened via OpenWindowReader
}

// OpenOption configures OpenWindowReader.
type OpenOption func(*openConfig)

type openConfig struct {
	recover bool
}

// Recover makes the reader stop cleanly at a torn tail — a truncated
// length prefix or a partial final frame — instead of failing, and count
// the skipped bytes (TornBytes). The file is left as it is. Corruption
// that is not a pure tail truncation (bad magic, oversized frame length,
// a complete frame that fails to decode) still fails: it is not
// recoverable by dropping a suffix. CLIs read with Recover; library
// callers that prefer to fail loudly omit it.
func Recover(c *openConfig) { c.recover = true }

// tornTailError describes a tail that a torn write produced: the store
// is intact up to good, then the remaining bytes are an incomplete
// length prefix or frame.
type tornTailError struct {
	good   int64 // offset of the last whole frame's end
	reason string
}

func (e *tornTailError) Error() string {
	return fmt.Sprintf("store: torn tail at offset %d: %s (read with recovery to skip it)", e.good, e.reason)
}

// OpenWindowReader starts a sequential read of a store file. The Recover
// option selects clean-stop semantics for torn tails; without it a torn
// tail is an error after the intact prefix is delivered. The file is
// opened read-only in both modes and closed by Close.
func OpenWindowReader(path string, opts ...OpenOption) (*WindowReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat: %w", err)
	}
	w, err := newWindowReader(f, fi.Size(), opts...)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.file = f
	return w, nil
}

// newWindowReader wraps a sequential reader holding size bytes of
// store-formatted data. It validates the header eagerly, so a malformed
// prefix fails at construction rather than on the first record.
func newWindowReader(r io.Reader, size int64, opts ...OpenOption) (*WindowReader, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	if size < headerLen {
		return nil, fmt.Errorf("store: file is %d bytes, smaller than the %d-byte header", size, headerLen)
	}
	w := &WindowReader{src: bufio.NewReader(r), size: size, recover: cfg.recover}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(w.src, hdr[:]); err != nil {
		return nil, fmt.Errorf("store: read header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("store: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != Version {
		return nil, fmt.Errorf("store: unsupported version %d", v)
	}
	w.offset = headerLen
	return w, nil
}

// NextRecord decodes the next frame — the shape core.RecordSource
// expects. It returns io.EOF at the end of the store; in strict mode a
// torn tail is the terminal error instead. The terminal error is sticky:
// every later call returns it again.
func (w *WindowReader) NextRecord() (*record.Record, error) {
	if w.err == nil {
		var r *record.Record
		if r, w.err = w.next(); w.err == nil {
			return r, nil
		}
	}
	return nil, w.err
}

// next decodes one frame, or reports the terminal condition.
func (w *WindowReader) next() (*record.Record, error) {
	remaining := w.size - w.offset
	if remaining == 0 {
		return nil, io.EOF
	}
	if remaining < 4 {
		return nil, w.tearOff(fmt.Sprintf("truncated length prefix (%d of 4 bytes)", remaining))
	}
	if _, err := io.ReadFull(w.src, w.lenBuf[:]); err != nil {
		return nil, fmt.Errorf("store: read frame length at %d: %w", w.offset, err)
	}
	frameLen := int64(binary.LittleEndian.Uint32(w.lenBuf[:]))
	if frameLen > MaxFrameLen {
		// Never recoverable: a torn write truncates, it cannot manufacture
		// a complete oversized length prefix.
		return nil, fmt.Errorf("store: frame length %d at offset %d exceeds cap %d (corrupt length prefix)", frameLen, w.offset, MaxFrameLen)
	}
	if frameLen > remaining-4 {
		return nil, w.tearOff(fmt.Sprintf("partial frame (%d of %d bytes)", remaining-4, frameLen))
	}
	if int64(cap(w.frame)) < frameLen {
		w.frame = make([]byte, frameLen)
	}
	w.frame = w.frame[:frameLen]
	if _, err := io.ReadFull(w.src, w.frame); err != nil {
		return nil, fmt.Errorf("store: read frame at %d: %w", w.offset, err)
	}
	r, err := decodeRecord(w.frame)
	if err != nil {
		return nil, fmt.Errorf("%w (frame at offset %d)", err, w.offset)
	}
	w.offset += 4 + frameLen
	return r, nil
}

// tearOff handles a torn tail per the reader's mode: Recover stops cleanly
// (recording the skipped bytes), strict returns the torn-tail diagnostic.
func (w *WindowReader) tearOff(reason string) error {
	if w.recover {
		w.torn = w.size - w.offset
		return io.EOF
	}
	return &tornTailError{good: w.offset, reason: reason}
}

// TornBytes reports the torn-tail bytes skipped under the Recover option;
// zero until the tail is actually reached, and always zero in strict mode.
func (w *WindowReader) TornBytes() int64 { return w.torn }

// Close releases the underlying file when the reader owns one.
func (w *WindowReader) Close() error {
	if w.file != nil {
		return w.file.Close()
	}
	return nil
}
