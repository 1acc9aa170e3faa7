package trace

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultProgressInterval is how often Progress prints when the caller
// doesn't choose: frequent enough to feel live, sparse enough not to
// flood a CI log over a multi-hour run.
const DefaultProgressInterval = 2 * time.Second

// Progress is the live-progress hook for long runs: the pipeline posts
// stage transitions and item counts through atomic setters; a
// background goroutine prints a status line (stage, items done, rate,
// ETA) every interval. A nil *Progress no-ops on every method, so
// instrumented code never branches on "progress enabled".
//
// Hooks are cheap — Add is one atomic add — and may be called from the
// pipeline's worker pools.
type Progress struct {
	// W receives the status lines; nil falls back to io.Discard.
	W io.Writer
	// Interval is the print cadence (<= 0 selects
	// DefaultProgressInterval).
	Interval time.Duration

	stage atomic.Pointer[progressStage]

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// progressStage is the immutable per-stage state the printer reads.
type progressStage struct {
	name  string
	total int64 // 0 = unknown
	t0    time.Time
	done  atomic.Int64
}

// Stage switches the progress to a new stage with the expected item
// count (0 when unknown), resetting the rate clock and the counter.
func (p *Progress) Stage(name string, total int64) {
	if p == nil {
		return
	}
	p.stage.Store(&progressStage{name: name, total: total, t0: time.Now()})
}

// Add advances the current stage's item counter.
func (p *Progress) Add(n int64) {
	if p == nil {
		return
	}
	if st := p.stage.Load(); st != nil {
		st.done.Add(n)
	}
}

// Start launches the printer goroutine. Idempotent.
func (p *Progress) Start() {
	if p == nil {
		return
	}
	p.startOnce.Do(func() {
		p.stop = make(chan struct{})
		p.done = make(chan struct{})
		go p.loop()
	})
}

// Stop halts the printer after one final line. Safe on a nil or
// never-started Progress, and idempotent.
func (p *Progress) Stop() {
	if p == nil || p.stop == nil {
		return
	}
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

func (p *Progress) loop() {
	defer close(p.done)
	interval := p.Interval
	if interval <= 0 {
		interval = DefaultProgressInterval
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			p.print()
			return
		case <-tick.C:
			p.print()
		}
	}
}

// print renders one status line. Unknown totals print the raw count;
// known totals add percentage and ETA from the stage-local rate.
func (p *Progress) print() {
	st := p.stage.Load()
	if st == nil {
		return
	}
	w := p.W
	if w == nil {
		w = io.Discard
	}
	done := st.done.Load()
	elapsed := time.Since(st.t0)
	line := fmt.Sprintf("progress: stage=%s %d", st.name, done)
	if st.total > 0 {
		line += fmt.Sprintf("/%d (%.1f%%)", st.total, 100*float64(done)/float64(st.total))
	}
	if secs := elapsed.Seconds(); secs > 0 && done > 0 {
		rate := float64(done) / secs
		line += fmt.Sprintf(" %.0f/s", rate)
		if st.total > 0 {
			// A stage may overshoot its estimate (coverage counters can
			// pass the record total); clamp so the line reads eta=0s
			// instead of a negative duration.
			remaining := st.total - done
			if remaining < 0 {
				remaining = 0
			}
			eta := time.Duration(float64(remaining) / rate * float64(time.Second))
			line += fmt.Sprintf(" eta=%s", eta.Round(100*time.Millisecond))
		}
	}
	fmt.Fprintln(w, line)
}
