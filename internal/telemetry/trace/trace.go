// Package trace is the pipeline's structured-tracing layer: a
// low-overhead hierarchical span system (run → stage → iteration →
// worker) with explicit parent handles, a runtime flight
// recorder sampling heap/RSS/goroutines/GC into a ring buffer, and a
// live-progress hook for long streaming runs.
//
// Aggregate telemetry (package telemetry's counters and histograms)
// answers "how much, on average"; trace answers "which worker stalled,
// when, and what was RSS doing at that moment" — the question the
// 6.5M-record scale work is debugged with.
//
// Design constraints, in order:
//
//   - Disabled is free. Every entry point tolerates a nil *Tracer, nil
//     *Span, nil *Sampler, and nil *Progress: a disabled pipeline pays
//     one nil check per span site and allocates nothing. Span sites are
//     coarse (stages, iterations, workers, spill flushes) — never
//     per-pair — so even enabled tracing is a rounding error next to
//     the work it describes.
//
//   - Safe under the existing worker pools. Spans are published onto an
//     atomic intrusive list (Treiber stack), so concurrent StartSpan
//     calls from mining and scoring workers never contend on a lock.
//     End is an atomic store. A span's attributes are owned by the
//     goroutine that started it until End.
//
//   - Deterministic output. Timings and span publication order vary run
//     to run, but the span *tree* is a pure function of the input and
//     configuration: Tree(Canonical) strips timings, prunes
//     variable-cardinality spans (workers — their count is the fan-out
//     width, not the workload), and sorts siblings under a total order,
//     yielding byte-identical JSON across worker counts. The
//     equivalence suite locks this down.
//
// Two exporters: WriteChrome emits Chrome trace-event JSON loadable in
// Perfetto (spans as complete events on per-worker tracks, flight
// recorder samples as counter series), and Tree emits the compact
// versioned span tree embedded in telemetry.RunReport.
package trace

import (
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Kind classifies a span for export and canonicalization. Worker spans
// are "variable cardinality": how many exist depends on the fan-out
// configuration, not on the workload, so Canonical prunes them when
// comparing traces across configurations.
type Kind uint8

const (
	// KindRun is the root span of one pipeline run.
	KindRun Kind = iota
	// KindStage is one pipeline stage (ingest, blocking, scoring,
	// rank).
	KindStage
	// KindIteration is one minsup level of the MFIBlocks loop.
	KindIteration
	// KindWorker is one goroutine's share of a parallel fan-out.
	KindWorker
	// KindSetup is a helper step that exists only under some fan-out
	// configurations (the scoring pool's profile-cache build, which the
	// serial path skips); Canonical prunes it like workers.
	KindSetup
	// KindOp is a sequential sub-operation (tree build, spill flush,
	// merge).
	KindOp
)

// String renders the kind for the tree export.
func (k Kind) String() string {
	switch k {
	case KindRun:
		return "run"
	case KindStage:
		return "stage"
	case KindIteration:
		return "iteration"
	case KindWorker:
		return "worker"
	case KindSetup:
		return "setup"
	default:
		return "op"
	}
}

// kindOf parses the string form; the inverse of Kind.String.
func kindOf(s string) Kind {
	switch s {
	case "run":
		return KindRun
	case "stage":
		return KindStage
	case "iteration":
		return KindIteration
	case "worker":
		return KindWorker
	case "setup":
		return KindSetup
	default:
		return KindOp
	}
}

// Attr is one integer attribute on a span: records, candidates, MFIs,
// spill runs, bytes. Integer-only keeps attributes deterministic and
// the export compact; durations live on the span itself.
type Attr struct {
	Key   string
	Value int64
}

// Span is one timed node of the run's hierarchy. Create with
// Tracer.StartSpan (root) or Span.Child; finish with End. The starting
// goroutine owns the span's attributes until End; after End the span is
// immutable. A nil *Span is a valid no-op handle, so call sites never
// branch on "tracing enabled".
type Span struct {
	tracer *Tracer
	parent *Span
	name   string
	kind   Kind
	track  int32
	start  int64 // ns since tracer start
	end    atomic.Int64
	attrs  []Attr
	next   *Span // intrusive publication list link
}

// Tracer collects one run's spans and flight-recorder samples. Create
// one per run with New; a nil *Tracer disables tracing at zero cost.
type Tracer struct {
	t0      time.Time
	head    atomic.Pointer[Span]
	count   atomic.Int64
	sampler atomic.Pointer[Sampler]
}

// New returns an empty tracer; its clock starts now.
func New() *Tracer {
	return &Tracer{t0: time.Now()}
}

// now returns nanoseconds since the tracer's start.
func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

// publish pushes a span onto the lock-free list.
func (t *Tracer) publish(s *Span) {
	for {
		head := t.head.Load()
		s.next = head
		if t.head.CompareAndSwap(head, s) {
			t.count.Add(1)
			return
		}
	}
}

// StartSpan opens a span under parent (nil parent makes a root span —
// normally the single run span). The span inherits its parent's track
// unless WithTrack overrides it.
func (t *Tracer) StartSpan(parent *Span, name string, opts ...Option) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tracer: t, parent: parent, name: name, start: t.now()}
	if parent != nil {
		s.track = parent.track
	}
	for _, o := range opts {
		o(s)
	}
	t.publish(s)
	return s
}

// Child opens a span under s, through s's tracer. On a nil span it
// returns nil, so a subsystem handed no parent traces nothing.
func (s *Span) Child(name string, opts ...Option) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.StartSpan(s, name, opts...)
}

// Option configures a span at start.
type Option func(*Span)

// WithKind sets the span's kind (default KindOp).
func WithKind(k Kind) Option { return func(s *Span) { s.kind = k } }

// WithTrack places the span on an explicit export track (Chrome tid).
// Parallel fan-outs give each worker its own track so their spans don't
// overlap on one timeline lane; sequential spans inherit the parent's.
func WithTrack(track int) Option { return func(s *Span) { s.track = int32(track) } }

// Attr records one integer attribute. Only the starting goroutine may
// call it, and only before End.
func (s *Span) Attr(key string, value int64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// Attrs records a map of attributes in sorted key order (maps iterate
// randomly; the span's attribute order must not).
func (s *Span) Attrs(m map[string]int64) *Span {
	if s == nil || len(m) == 0 {
		return s
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.attrs = append(s.attrs, Attr{Key: k, Value: m[k]})
	}
	return s
}

// End closes the span. Idempotent: the first End wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.end.CompareAndSwap(0, s.tracer.now())
}

// Len reports how many spans the tracer holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return int(t.count.Load())
}

// Start returns the tracer's epoch (the zero point of every span's
// start offset).
func (t *Tracer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.t0
}

// spans returns the published spans in creation order (the publication
// list is LIFO, so it is reversed). Spans still open at export time are
// rendered as ending at the export instant; callers exporting a
// finished run see only closed spans.
func (t *Tracer) spans() []*Span {
	if t == nil {
		return nil
	}
	var out []*Span
	for s := t.head.Load(); s != nil; s = s.next {
		out = append(out, s)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// endOrNow returns the span's end offset, substituting the current
// clock for still-open spans.
func (s *Span) endOrNow() int64 {
	if e := s.end.Load(); e != 0 {
		return e
	}
	return s.tracer.now()
}

// attrString renders attributes as a deterministic sort key.
func attrString(attrs []Attr) string {
	var b []byte
	for _, a := range attrs {
		b = append(b, a.Key...)
		b = append(b, '=')
		b = strconv.AppendInt(b, a.Value, 10)
		b = append(b, ';')
	}
	return string(b)
}
