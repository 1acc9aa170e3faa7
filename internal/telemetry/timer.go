package telemetry

import "time"

// Timer records durations into a seconds histogram. Obtain one from
// Registry.Timer; a nil Timer no-ops.
type Timer struct {
	h *Histogram
}

// Timer returns the duration histogram named family (DurationBuckets
// layout) wrapped as a Timer.
func (r *Registry) Timer(family string, labels ...Label) *Timer {
	if r == nil {
		return nil
	}
	return &Timer{h: r.Histogram(family, DurationBuckets, labels...)}
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.h.Observe(d.Seconds())
}
