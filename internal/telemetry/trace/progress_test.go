package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe strings.Builder for the printer's
// output.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestProgressLine pins the status-line contract: stage name and count
// with total and percentage appear in the final line Stop flushes.
func TestProgressLine(t *testing.T) {
	var buf syncBuffer
	p := &Progress{W: &buf, Interval: time.Hour} // only the final print
	p.Start()
	p.Stage("blocking", 200)
	p.Add(50)
	p.Stop()
	out := buf.String()
	for _, want := range []string{"stage=blocking", "50/200", "25.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress line missing %q:\n%s", want, out)
		}
	}
}

// TestProgressUnknownTotal pins the open-ended form (ingest has no
// record count up front): raw count, no percentage or ETA.
func TestProgressUnknownTotal(t *testing.T) {
	var buf syncBuffer
	p := &Progress{W: &buf, Interval: time.Hour}
	p.Start()
	p.Stage("ingest", 0)
	p.Add(123)
	p.Stop()
	out := buf.String()
	if !strings.Contains(out, "stage=ingest 123") {
		t.Errorf("unknown-total line wrong:\n%s", out)
	}
	if strings.Contains(out, "%") || strings.Contains(out, "eta=") {
		t.Errorf("unknown total printed percentage/ETA:\n%s", out)
	}
}

// TestProgressETAClampsAtZero pins the overshoot form: when the counter
// passes the stage total (coverage can exceed the record estimate), the
// ETA clamps to zero instead of rendering a negative duration.
func TestProgressETAClampsAtZero(t *testing.T) {
	var buf syncBuffer
	p := &Progress{W: &buf, Interval: time.Hour}
	p.Start()
	p.Stage("blocking", 100)
	p.Add(150)                        // done > total
	time.Sleep(10 * time.Millisecond) // non-zero elapsed so the rate term prints
	p.Stop()
	out := buf.String()
	if !strings.Contains(out, "eta=0s") {
		t.Errorf("overshot stage should print eta=0s:\n%s", out)
	}
	if strings.Contains(out, "eta=-") {
		t.Errorf("negative ETA leaked:\n%s", out)
	}
}

// TestProgressETAExactTotal pins the done == total boundary: finished
// stages report eta=0s rather than dropping the field mid-format.
func TestProgressETAExactTotal(t *testing.T) {
	var buf syncBuffer
	p := &Progress{W: &buf, Interval: time.Hour}
	p.Start()
	p.Stage("scoring", 100)
	p.Add(100)
	time.Sleep(10 * time.Millisecond)
	p.Stop()
	if out := buf.String(); !strings.Contains(out, "eta=0s") {
		t.Errorf("completed stage should print eta=0s:\n%s", out)
	}
}

// TestProgressStopWithoutStart pins that Stop on a never-started (or
// nil) Progress is a no-op — teardown paths call it unconditionally.
func TestProgressStopWithoutStart(t *testing.T) {
	p := &Progress{}
	p.Stop()
	var nilP *Progress
	nilP.Stop()
}

// TestProgressConcurrentAdds hammers the hooks from worker-pool-like
// goroutines while the printer runs — with -race this is the progress
// hook's data-race certificate.
func TestProgressConcurrentAdds(t *testing.T) {
	var buf syncBuffer
	p := &Progress{W: &buf, Interval: time.Millisecond}
	p.Start()
	p.Stage("scoring", 1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 125; i++ {
				p.Add(1)
			}
		}()
	}
	wg.Wait()
	p.Stop()
	if !strings.Contains(buf.String(), "1000/1000") {
		t.Errorf("final count wrong:\n%s", buf.String())
	}
}
