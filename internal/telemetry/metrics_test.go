package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // counters never go down
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	var nilC *Counter
	nilC.Inc() // must not panic
	if nilC.Value() != 0 {
		t.Error("nil counter non-zero")
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Add(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("Value = %v, want 1.5", got)
	}
	var nilG *Gauge
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Error("nil gauge non-zero")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=1: 0.5 and 1; le=2: +1.5; le=5: +3; +Inf: +10.
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, s.Cumulative[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if s.Sum != 0.5+1+1.5+3+10 {
		t.Errorf("sum = %v", s.Sum)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	b := NewHistogram([]float64{1, 2})
	a.Observe(0.5)
	b.Observe(1.5)
	b.Observe(3)
	a.Merge(b)
	s := a.Snapshot()
	if s.Count != 3 || s.Cumulative[2] != 3 {
		t.Errorf("merged snapshot = %+v", s)
	}
	if s.Sum != 5 {
		t.Errorf("merged sum = %v, want 5", s.Sum)
	}
}

func TestHistogramMergeLayoutMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Merge across layouts did not panic")
		}
	}()
	NewHistogram([]float64{1}).Merge(NewHistogram([]float64{1, 2}))
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total")
	c2 := r.Counter("x_total")
	if c1 != c2 {
		t.Error("same name returned distinct counters")
	}
	l1 := r.Counter("y_total", L("route", "/a"))
	l2 := r.Counter("y_total", L("route", "/b"))
	if l1 == l2 {
		t.Error("distinct labels shared a counter")
	}
	h1 := r.Histogram("h_seconds", DurationBuckets)
	h2 := r.Histogram("h_seconds", nil) // bounds ignored on re-get
	if h1 != h2 {
		t.Error("histogram not memoized")
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Add(1)
	r.Histogram("c", DurationBuckets).Observe(1)
	r.Timer("d").Observe(time.Second)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry rendered %q, err %v", sb.String(), err)
	}
}

func TestTimerObserves(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("op_seconds")
	tm.Observe(50 * time.Millisecond)
	r.Timer("op_seconds").Observe(3 * time.Second)
	s := r.Histogram("op_seconds", DurationBuckets).Snapshot()
	if s.Count != 2 || s.Sum != 3.05 {
		t.Errorf("timer count = %d, sum = %v, want 2 and 3.05", s.Count, s.Sum)
	}
	// 50ms lands in the le=0.05 bucket, 3s in le=5.
	if s.Cumulative[8] != 1 || s.Cumulative[14] != 2 {
		t.Errorf("timer cumulative = %v", s.Cumulative)
	}
}

// TestRegistryConcurrent exercises concurrent get-or-create and updates
// across all instrument kinds; run with -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared_total").Inc()
				r.Counter("labeled_total", L("w", string(rune('a'+w%4)))).Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{1, 10, 100}).Observe(float64(i))
				if i%50 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8*500 {
		t.Errorf("shared_total = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("h", nil).Snapshot().Count; got != 8*500 {
		t.Errorf("histogram count = %d, want %d", got, 8*500)
	}
	if got := r.Gauge("g").Value(); got != 8*500 {
		t.Errorf("gauge = %v, want %d", got, 8*500)
	}
}

func TestSilenceRestores(t *testing.T) {
	restore := Silence()
	Log().Info("this must be discarded")
	restore()
	if Log() == nil {
		t.Fatal("logger nil after restore")
	}
}
