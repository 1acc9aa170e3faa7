// Package telemetry is the repo's dependency-free observability core:
// the JSON-serializable RunReport the pipeline attaches to every
// Resolution, atomic counters, gauges, and fixed-bucket histograms
// collected in a Registry (rendered as Prometheus text by
// WritePrometheus), and the server's structured logger (log/slog).
//
// Metric families follow the Prometheus naming scheme
// <subsystem>_<what>_<unit>: counters end in _total, duration
// histograms in _seconds. Instruments are safe for concurrent use, and
// every accessor tolerates a nil receiver (a nil *Registry hands out
// nil instruments whose methods no-op), so instrumented code never
// branches on "telemetry enabled".
package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters only
// go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Add adds d to the gauge (CAS loop).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: counts per upper bound plus an
// implicit +Inf overflow bucket, a running sum, and a total count. The
// bucket layout is immutable after construction.
type Histogram struct {
	bounds  []float64 // ascending upper bounds (le), excluding +Inf
	buckets []atomic.Int64
	inf     atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. The bounds slice is copied; an empty layout still counts and
// sums observations in the +Inf bucket.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.bucketFor(v).Add(1)
	h.count.Add(1)
	h.addSum(v)
}

func (h *Histogram) bucketFor(v float64) *atomic.Int64 {
	// First bound >= v; sort.SearchFloat64s finds the first >= which is
	// what `le` semantics want.
	i := sort.SearchFloat64s(h.bounds, v)
	if i == len(h.bounds) {
		return &h.inf
	}
	return &h.buckets[i]
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Merge folds another histogram with the identical bucket bounds into
// h. A histogram with other bounds is an error and changes nothing: a
// registry series may have been created with other bounds by whoever
// named the family first.
func (h *Histogram) Merge(src *Histogram) error {
	if h == nil || src == nil {
		return nil
	}
	if !slices.Equal(src.bounds, h.bounds) {
		return fmt.Errorf("telemetry: merge of a histogram with %d bounds into one with %d other bounds", len(src.bounds), len(h.bounds))
	}
	for i := range src.buckets {
		if n := src.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	if n := src.inf.Load(); n > 0 {
		h.inf.Add(n)
	}
	if n := src.count.Load(); n > 0 {
		h.count.Add(n)
		h.addSum(math.Float64frombits(src.sumBits.Load()))
	}
	return nil
}

// HistogramSnapshot is a point-in-time, JSON-friendly view of a
// histogram: cumulative counts per upper bound plus the +Inf total.
type HistogramSnapshot struct {
	Bounds     []float64 `json:"bounds"`
	Cumulative []int64   `json:"cumulative"` // len(Bounds)+1; last is the total (+Inf)
	Sum        float64   `json:"sum"`
	Count      int64     `json:"count"`
}

// Snapshot captures the histogram's current state. Concurrent
// observers may land between bucket reads; the snapshot is re-monotonized
// so cumulative counts never decrease.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:     append([]float64(nil), h.bounds...),
		Cumulative: make([]int64, len(h.bounds)+1),
	}
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		s.Cumulative[i] = cum
	}
	s.Cumulative[len(h.bounds)] = cum + h.inf.Load()
	s.Sum = math.Float64frombits(h.sumBits.Load())
	s.Count = h.count.Load()
	if s.Count < s.Cumulative[len(h.bounds)] {
		s.Count = s.Cumulative[len(h.bounds)]
	}
	return s
}

// DurationBuckets is the default layout for stage and request timers,
// in seconds: 100µs up to ~2 minutes.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// ScoreBuckets is the default layout for match-score distributions:
// model confidences are unbounded reals centred near zero, block scores
// live in [0,1].
var ScoreBuckets = []float64{
	-5, -2, -1, -0.5, -0.25, 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 1.5, 2, 5,
}

// metricKind discriminates registry entries for rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one registered time series: a metric family name, its
// rendered label set, and the instrument.
type series struct {
	family string
	labels []Label
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry hands out named instruments, get-or-create style, and
// renders them all as Prometheus text. The zero value is not usable;
// call NewRegistry. A nil *Registry is safe: it returns nil instruments.
type Registry struct {
	mu    sync.RWMutex
	byKey map[string]*series
	order []string // insertion order of keys, for stable iteration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*series)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. core.Run and the server
// fall back to it when no registry is configured, so a server's
// /metrics shows its resolution's families without any wiring.
func Default() *Registry { return defaultRegistry }

// seriesKey renders the unique key of a family + label set.
func seriesKey(family string, labels []Label) string {
	if len(labels) == 0 {
		return family
	}
	key := family
	for _, l := range labels {
		key += "\x00" + l.Key + "\x00" + l.Value
	}
	return key
}

// lookup returns the series for key under the read lock, or nil.
func (r *Registry) lookup(key string) *series {
	r.mu.RLock()
	s := r.byKey[key]
	r.mu.RUnlock()
	return s
}

// register inserts the series built by mk unless a concurrent writer
// won; the surviving entry is returned.
func (r *Registry) register(key string, mk func() *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		return s
	}
	s := mk()
	r.byKey[key] = s
	r.order = append(r.order, key)
	return s
}

// Counter returns the counter named family with the given labels,
// creating it on first use.
func (r *Registry) Counter(family string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(family, labels)
	if s := r.lookup(key); s != nil {
		return s.c
	}
	s := r.register(key, func() *series {
		return &series{family: family, labels: labels, kind: kindCounter, c: &Counter{}}
	})
	return s.c
}

// Gauge returns the gauge named family with the given labels, creating
// it on first use.
func (r *Registry) Gauge(family string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesKey(family, labels)
	if s := r.lookup(key); s != nil {
		return s.g
	}
	s := r.register(key, func() *series {
		return &series{family: family, labels: labels, kind: kindGauge, g: &Gauge{}}
	})
	return s.g
}

// Histogram returns the histogram named family with the given labels,
// creating it with the bounds on first use. Later calls for the same
// series ignore bounds (the first layout wins).
func (r *Registry) Histogram(family string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesKey(family, labels)
	if s := r.lookup(key); s != nil {
		return s.h
	}
	s := r.register(key, func() *series {
		return &series{family: family, labels: labels, kind: kindHistogram, h: NewHistogram(bounds)}
	})
	return s.h
}
