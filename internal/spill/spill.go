// Package spill bounds the memory of candidate-pair accumulation: the
// blocking stage at paper scale emits millions of (pair, score) events,
// and holding them in a Go map is the single largest allocation of an
// end-to-end run. A spill.Pairs accepts the event stream through a
// fixed-size in-memory window; when the window fills it is flushed to
// disk as a sorted binary run, and Iter merges the runs (and the live
// window) with a max-score combine into one deterministic stream sorted
// by (A, B). The merge is pure: the same event multiset yields the same
// stream regardless of window size, flush timing, or emission order, so
// a spilled run is bit-compatible with an in-memory one downstream of
// the stage that consumes it.
//
// Run format (little-endian, 24 bytes per entry): int64 A | int64 B |
// float64 score, sorted ascending by (A, B) with at most one entry per
// pair per run.
package spill

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/record"
	"repro/internal/telemetry/trace"
)

// entryLen is the on-disk size of one (pair, score) entry.
const entryLen = 24

// DefaultCap is the in-memory window used when a caller enables spilling
// without choosing a cap: ~4M distinct pairs, roughly 100–200MB of map —
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
	cap   int
	dir   string
	mem   map[record.Pair]float64
	runs  []*os.File
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
	return &Pairs{cap: capEntries, dir: dir, mem: make(map[record.Pair]float64, min(capEntries, 1<<16))}
}

// Add records one (pair, score) event, keeping the maximal score per
// pair. It reports whether the pair was first seen by the current
// in-memory window — exact overall until the first flush, after which a
// pair evicted to disk and re-observed counts as first-seen again.
func (s *Pairs) Add(p record.Pair, score float64) (first bool, err error) {
	if s.done {
		return false, fmt.Errorf("spill: Add after Iter")
	}
	old, seen := s.mem[p]
	if !seen {
		if len(s.mem) >= s.cap {
			if err := s.flush(); err != nil {
				return false, err
			}
		}
		s.mem[p] = score
		return true, nil
	}
	if score > old {
		s.mem[p] = score
	}
	return false, nil
}

// Len reports the distinct pairs in the current in-memory window.
func (s *Pairs) Len() int { return len(s.mem) }

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
	keys := make([]record.Pair, 0, len(s.mem))
	for p := range s.mem {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].A != keys[j].A {
			return keys[i].A < keys[j].A
		}
		return keys[i].B < keys[j].B
	})
	f, err := os.CreateTemp(s.dir, "yvpairs-*.run")
	if err != nil {
		return fmt.Errorf("spill: create run: %w", err)
	}
	// Unlink immediately: the open descriptor keeps the run readable, and
	// a crashed process leaves nothing behind.
	os.Remove(f.Name())
	w := bufio.NewWriterSize(f, 1<<20)
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
	s.runs = append(s.runs, f)
	s.stats.Runs++
	s.stats.SpilledEntries += int64(len(keys))
	s.stats.SpilledBytes += int64(len(keys)) * entryLen
	s.mem = make(map[record.Pair]float64, min(s.cap, 1<<16))
	return nil
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
	mem := make([]memEntry, 0, len(s.mem))
	for p, sc := range s.mem {
		mem = append(mem, memEntry{p, sc})
	}
	sort.Slice(mem, func(i, j int) bool {
		if mem[i].p.A != mem[j].p.A {
			return mem[i].p.A < mem[j].p.A
		}
		return mem[i].p.B < mem[j].p.B
	})
	it.mem = mem

	for _, f := range s.runs {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("spill: rewind run: %w", err)
		}
		src := &runSource{r: bufio.NewReaderSize(f, 1<<20)}
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
	for _, f := range s.runs {
		if err := f.Close(); err != nil && first == nil {
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
type runSource struct {
	r        *bufio.Reader
	mem      []memEntry
	cur      record.Pair
	curScore float64
	eof      bool
}

// advance loads the source's next entry.
func (s *runSource) advance() error {
	if s.r != nil {
		var buf [entryLen]byte
		_, err := io.ReadFull(s.r, buf[:])
		if err == io.EOF {
			s.eof = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("spill: read run: %w", err)
		}
		s.cur = record.Pair{
			A: int64(binary.LittleEndian.Uint64(buf[0:8])),
			B: int64(binary.LittleEndian.Uint64(buf[8:16])),
		}
		s.curScore = math.Float64frombits(binary.LittleEndian.Uint64(buf[16:24]))
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
	count int
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
	it.count++
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

// Count reports the distinct pairs delivered so far.
func (it *Iter) Count() int { return it.count }
