// Package spill is the blocking stage's one candidate-pair accumulator.
// At paper scale the stage emits millions of (pair, score) events, and
// holding them all in a Go map is the single largest allocation of an
// end-to-end run. A spill.Pairs accepts the event stream through an
// in-memory window of at most a cap of distinct pairs. A run whose
// candidates fit under the cap never touches disk: Resident hands the
// window over as it is, pairs in first-seen order. Once the window
// fills it is flushed to disk as a sorted binary run, and Iter merges
// the runs (and the live window) with a max-score combine into one
// deterministic stream sorted by (A, B). The merge is pure: the same
// event multiset yields the same stream regardless of window size,
// flush timing, or emission order, so a spilled candidate set is
// bit-compatible with a resident one downstream of the stage that
// consumes it.
//
// Run format (little-endian, 24 bytes per entry): int64 A | int64 B |
// float64 score, sorted ascending by (A, B) with at most one entry per
// pair per run.
package spill

import (
	"bufio"
	"cmp"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/record"
	"repro/internal/telemetry/trace"
)

// entryLen is the on-disk size of one (pair, score) entry.
const entryLen = 24

// maxBuf bounds a run's read and write buffer; a smaller run gets a
// buffer of its own size.
const maxBuf = 1 << 20

// run is one sorted run on disk and its size in bytes.
type run struct {
	f     *os.File
	bytes int
}

// DefaultCap is the in-memory window used when the caller chooses no
// cap: ~4M distinct pairs, each a map entry plus a 16-byte order slot —
// small enough for laptop hardware, large enough that corpora below
// ~500K records never spill at all.
const DefaultCap = 4 << 20

// Stats describes a Pairs' lifetime activity.
type Stats struct {
	// Runs is the number of sorted runs flushed to disk.
	Runs int
	// SpilledEntries counts entries written across all runs (a pair
	// re-observed after its window was flushed appears in several runs).
	SpilledEntries int64
	// SpilledBytes counts bytes written across all runs.
	SpilledBytes int64
	// MergedEntries counts the distinct pairs the merge iterator has
	// delivered back to the consumer.
	MergedEntries int64
	// MergedBytes is the on-disk byte equivalent of MergedEntries.
	MergedBytes int64
}

// Pairs accumulates (pair, score) events under a bounded in-memory
// footprint. Not safe for concurrent use; the blocking stage's pair
// emission is sequential by design.
type Pairs struct {
	cap int
	dir string
	// order and mem are the window: its distinct pairs in first-seen
	// order, and each one's maximal score.
	order []record.Pair
	mem   map[record.Pair]float64
	runs  []run
	stats Stats
	done  bool

	// Trace, when set, parents a span per run flush and one for the
	// merge setup — the disk activity of a spilled run, on the
	// blocking stage's timeline. Nil traces nothing.
	Trace *trace.Span
}

// NewPairs returns an accumulator holding at most capEntries distinct
// pairs in memory (<=0 selects DefaultCap). Runs spill into dir, or the
// system temp directory when dir is empty; files are unlinked on Close.
func NewPairs(capEntries int, dir string) *Pairs {
	if capEntries <= 0 {
		capEntries = DefaultCap
	}
	// The window grows with its contents: a run far under the cap costs
	// no more than its own pairs, and a flush keeps the grown map.
	return &Pairs{cap: capEntries, dir: dir, mem: make(map[record.Pair]float64)}
}

// Add records one (pair, score) event, keeping the maximal score per
// pair. It reports whether the pair was first seen by the current
// in-memory window — exact overall until the first flush, after which a
// pair evicted to disk and re-observed counts as first-seen again.
func (s *Pairs) Add(p record.Pair, score float64) (first bool, err error) {
	if s.done {
		return false, fmt.Errorf("spill: Add after Iter or Resident")
	}
	old, seen := s.mem[p]
	if !seen {
		if len(s.mem) >= s.cap {
			if err := s.flush(); err != nil {
				return false, err
			}
		}
		s.mem[p] = score
		s.order = append(s.order, p)
		return true, nil
	}
	if score > old {
		s.mem[p] = score
	}
	return false, nil
}

// Resident finishes the accumulator and hands over the window when
// nothing has spilled — then the window is the whole candidate set: the
// distinct pairs in first-seen order and each one's maximal score. The
// caller then owns both, and the accumulator must not be used again. ok
// is false once a run has gone to disk; the accumulator is then left
// open for Iter.
func (s *Pairs) Resident() (pairs []record.Pair, scores map[record.Pair]float64, ok bool) {
	if s.stats.Runs > 0 {
		return nil, nil, false
	}
	s.done = true
	return s.order, s.mem, true
}

// Stats reports the accumulated spill activity.
func (s *Pairs) Stats() Stats { return s.stats }

// flush writes the in-memory window as one sorted run and resets it.
func (s *Pairs) flush() error {
	if len(s.mem) == 0 {
		return nil
	}
	sp := s.Trace.Child("spill_flush").
		Attr("run", int64(s.stats.Runs)).
		Attr("entries", int64(len(s.mem))).
		Attr("bytes", int64(len(s.mem))*entryLen)
	defer sp.End()
	// The window is reset below, so its order slice is sorted in place.
	keys := s.order
	slices.SortFunc(keys, comparePairs)
	f, err := os.CreateTemp(s.dir, "yvpairs-*.run")
	if err != nil {
		return fmt.Errorf("spill: create run: %w", err)
	}
	// Unlink immediately: the open descriptor keeps the run readable, and
	// a crashed process leaves nothing behind.
	os.Remove(f.Name())
	size := len(keys) * entryLen
	w := bufio.NewWriterSize(f, min(maxBuf, size))
	var buf [entryLen]byte
	for _, p := range keys {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(p.A))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(p.B))
		binary.LittleEndian.PutUint64(buf[16:24], math.Float64bits(s.mem[p]))
		if _, err := w.Write(buf[:]); err != nil {
			f.Close()
			return fmt.Errorf("spill: write run: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spill: flush run: %w", err)
	}
	s.runs = append(s.runs, run{f, size})
	s.stats.Runs++
	s.stats.SpilledEntries += int64(len(keys))
	s.stats.SpilledBytes += int64(size)
	s.order = s.order[:0]
	clear(s.mem)
	return nil
}

// comparePairs orders pairs ascending by (A, B), the order of every run
// and of the merged stream.
func comparePairs(a, b record.Pair) int {
	if a.A != b.A {
		return cmp.Compare(a.A, b.A)
	}
	return cmp.Compare(a.B, b.B)
}

// Iter finalizes the accumulator and returns the merged stream: every
// distinct pair exactly once, ascending by (A, B), each with the maximal
// score observed across all events. Add must not be called afterwards.
func (s *Pairs) Iter() (*Iter, error) {
	s.done = true
	sp := s.Trace.Child("spill_merge_open").
		Attr("runs", int64(s.stats.Runs)).
		Attr("window_entries", int64(len(s.mem)))
	defer sp.End()
	it := &Iter{pairs: s}

	// The live window joins the merge as an in-memory sorted source.
	slices.SortFunc(s.order, comparePairs)
	mem := make([]memEntry, len(s.order))
	for i, p := range s.order {
		mem[i] = memEntry{p, s.mem[p]}
	}
	it.mem = mem

	for _, r := range s.runs {
		if _, err := r.f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("spill: rewind run: %w", err)
		}
		src := &runSource{r: bufio.NewReaderSize(r.f, min(maxBuf, r.bytes))}
		if err := src.advance(); err != nil {
			return nil, err
		}
		if !src.eof {
			it.h = append(it.h, src)
		}
	}
	if len(it.mem) > 0 {
		src := &runSource{mem: it.mem}
		src.cur, src.curScore = it.mem[0].p, it.mem[0].s
		src.mem = it.mem[1:]
		it.h = append(it.h, src)
	}
	heap.Init(&it.h)
	return it, nil
}

// Close releases all run files. Safe to call more than once.
func (s *Pairs) Close() error {
	var first error
	for _, r := range s.runs {
		if err := r.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.runs = nil
	return first
}

type memEntry struct {
	p record.Pair
	s float64
}

// runSource is one merge input: either a disk run or the live window.
// buf is a disk run's read buffer: io.ReadFull's reader is an interface,
// so a buffer local to advance would be moved to the heap on every call.
type runSource struct {
	r        *bufio.Reader
	buf      [entryLen]byte
	mem      []memEntry
	cur      record.Pair
	curScore float64
	eof      bool
}

// advance loads the source's next entry.
func (s *runSource) advance() error {
	if s.r != nil {
		_, err := io.ReadFull(s.r, s.buf[:])
		if err == io.EOF {
			s.eof = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("spill: read run: %w", err)
		}
		s.cur = record.Pair{
			A: int64(binary.LittleEndian.Uint64(s.buf[0:8])),
			B: int64(binary.LittleEndian.Uint64(s.buf[8:16])),
		}
		s.curScore = math.Float64frombits(binary.LittleEndian.Uint64(s.buf[16:24]))
		return nil
	}
	if len(s.mem) == 0 {
		s.eof = true
		return nil
	}
	s.cur, s.curScore = s.mem[0].p, s.mem[0].s
	s.mem = s.mem[1:]
	return nil
}

// mergeHeap orders sources by their current pair.
type mergeHeap []*runSource

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].cur.A != h[j].cur.A {
		return h[i].cur.A < h[j].cur.A
	}
	return h[i].cur.B < h[j].cur.B
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*runSource)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Iter is the merged (A, B)-sorted stream of distinct pairs with maximal
// scores.
type Iter struct {
	pairs *Pairs
	mem   []memEntry
	h     mergeHeap
}

// Next returns the next pair and score, or io.EOF when exhausted.
func (it *Iter) Next() (record.Pair, float64, error) {
	if it.h.Len() == 0 {
		return record.Pair{}, 0, io.EOF
	}
	top := it.h[0]
	p, score := top.cur, top.curScore
	if err := it.step(); err != nil {
		return record.Pair{}, 0, err
	}
	// Combine duplicates across runs with max score.
	for it.h.Len() > 0 && it.h[0].cur == p {
		if s := it.h[0].curScore; s > score {
			score = s
		}
		if err := it.step(); err != nil {
			return record.Pair{}, 0, err
		}
	}
	it.pairs.stats.MergedEntries++
	it.pairs.stats.MergedBytes += entryLen
	return p, score, nil
}

// step advances the heap's top source, dropping it at EOF.
func (it *Iter) step() error {
	top := it.h[0]
	if err := top.advance(); err != nil {
		return err
	}
	if top.eof {
		heap.Pop(&it.h)
	} else {
		heap.Fix(&it.h, 0)
	}
	return nil
}
