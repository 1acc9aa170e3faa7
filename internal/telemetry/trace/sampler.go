package trace

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Sample is one flight-recorder observation.
type Sample struct {
	// AtNS is the sample's offset from the tracer's start.
	AtNS int64 `json:"at_ns"`
	// HeapBytes is the live heap (runtime.MemStats.HeapAlloc).
	HeapBytes int64 `json:"heap_bytes"`
	// RSSBytes is the process resident set from /proc/self/statm;
	// meaningless on platforms without procfs — check the sampler's
	// RSSAvailable before trusting it.
	RSSBytes int64 `json:"rss_bytes"`
	// Goroutines is runtime.NumGoroutine.
	Goroutines int64 `json:"goroutines"`
	// GCPauseNS is the cumulative stop-the-world pause total.
	GCPauseNS int64 `json:"gc_pause_total_ns"`
	// GCCycles is the completed GC cycle count.
	GCCycles int64 `json:"gc_cycles"`
}

// DefaultSampleInterval balances resolution against cost: ReadMemStats
// briefly stops the world, and 50ms keeps that well under 0.1% of run
// time while still resolving per-iteration RSS swings.
const DefaultSampleInterval = 50 * time.Millisecond

// defaultSamplerCap bounds the ring: at the default interval it holds
// the last ~27 minutes, far beyond any current run.
const defaultSamplerCap = 1 << 15

// Sampler is the runtime flight recorder: a background goroutine
// sampling heap, RSS, goroutine count, and GC activity into a bounded
// ring buffer. When the ring fills, the oldest samples are overwritten
// — like a flight recorder, the recent past survives.
type Sampler struct {
	tracer   *Tracer
	interval time.Duration
	rssOK    bool // procfs readable at start: rss series and summary present

	mu      sync.Mutex
	ring    []Sample
	next    int
	wrapped bool
	taken   int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartSampler launches the flight recorder at the given interval
// (<= 0 selects DefaultSampleInterval). The sampler's series join the
// Chrome export as counter events and the run report as a summary.
// Stop it before the process exits; a second StartSampler replaces the
// first in the exports but does not stop it.
func (t *Tracer) StartSampler(interval time.Duration) *Sampler {
	if t == nil {
		return nil
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	s := &Sampler{
		tracer:   t,
		interval: interval,
		ring:     make([]Sample, 0, defaultSamplerCap),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	_, s.rssOK = readRSS()
	t.sampler.Store(s)
	go s.loop()
	return s
}

// Sampler returns the tracer's flight recorder, or nil.
func (t *Tracer) Sampler() *Sampler {
	if t == nil {
		return nil
	}
	return t.sampler.Load()
}

func (s *Sampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	s.take() // one sample at start, so even sub-interval runs record
	for {
		select {
		case <-s.stop:
			s.take() // and one at the end, for the same reason
			return
		case <-tick.C:
			s.take()
		}
	}
}

// take records one sample into the ring.
func (s *Sampler) take() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rss, _ := readRSS()
	smp := Sample{
		AtNS:       s.tracer.now(),
		HeapBytes:  int64(ms.HeapAlloc),
		RSSBytes:   rss,
		Goroutines: int64(runtime.NumGoroutine()),
		GCPauseNS:  int64(ms.PauseTotalNs),
		GCCycles:   int64(ms.NumGC),
	}
	s.mu.Lock()
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, smp)
	} else {
		s.ring[s.next] = smp
		s.wrapped = true
	}
	s.next = (s.next + 1) % cap(s.ring)
	s.taken++
	s.mu.Unlock()
}

// Stop halts the sampling goroutine after one final sample and waits
// for it to exit. Idempotent and safe on a nil sampler.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// RSSAvailable reports whether the platform exposed resident-set
// samples when the recorder started. When false the rss counter lane is
// left out of the Chrome export and the summary omits its RSS fields —
// an absent series, not a series of zeros masquerading as measurements.
func (s *Sampler) RSSAvailable() bool { return s != nil && s.rssOK }

// Samples returns the recorded window in chronological order.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.wrapped {
		return append([]Sample(nil), s.ring...)
	}
	out := make([]Sample, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}

// SamplerSummary condenses the flight recorder for the run report:
// sample accounting plus peak and median of the memory series.
type SamplerSummary struct {
	IntervalNS    int64 `json:"interval_ns"`
	Samples       int64 `json:"samples"`
	Retained      int   `json:"retained"`
	PeakHeapBytes int64 `json:"peak_heap_bytes"`
	P50HeapBytes  int64 `json:"p50_heap_bytes"`
	// The RSS pair is omitted (not zeroed) when procfs is unavailable.
	PeakRSSBytes   int64 `json:"peak_rss_bytes,omitempty"`
	P50RSSBytes    int64 `json:"p50_rss_bytes,omitempty"`
	PeakGoroutines int64 `json:"peak_goroutines"`
	GCPauseNS      int64 `json:"gc_pause_total_ns"`
	GCCycles       int64 `json:"gc_cycles"`
}

// Summary computes the report-form condensation of the current window.
func (s *Sampler) Summary() *SamplerSummary {
	if s == nil {
		return nil
	}
	samples := s.Samples()
	s.mu.Lock()
	sum := &SamplerSummary{IntervalNS: int64(s.interval), Samples: s.taken, Retained: len(samples)}
	s.mu.Unlock()
	if len(samples) == 0 {
		return sum
	}
	heap := make([]int64, 0, len(samples))
	rss := make([]int64, 0, len(samples))
	for _, smp := range samples {
		heap = append(heap, smp.HeapBytes)
		rss = append(rss, smp.RSSBytes)
		if smp.Goroutines > sum.PeakGoroutines {
			sum.PeakGoroutines = smp.Goroutines
		}
	}
	last := samples[len(samples)-1]
	sum.GCPauseNS = last.GCPauseNS
	sum.GCCycles = last.GCCycles
	sum.PeakHeapBytes, sum.P50HeapBytes = peakAndP50(heap)
	if s.rssOK {
		sum.PeakRSSBytes, sum.P50RSSBytes = peakAndP50(rss)
	}
	return sum
}

func peakAndP50(vs []int64) (peak, p50 int64) {
	sorted := append([]int64(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)-1], sorted[len(sorted)/2]
}

// statmPath is the procfs source for resident-set samples. A variable
// so tests can point it at a missing file and exercise the
// no-procfs path on any platform.
var statmPath = "/proc/self/statm"

// readRSS reads the resident set size from statmPath (field 2, in
// pages). ok is false on platforms without procfs — callers drop the
// series instead of recording zeros.
func readRSS() (rss int64, ok bool) {
	data, err := os.ReadFile(statmPath)
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * int64(os.Getpagesize()), true
}
