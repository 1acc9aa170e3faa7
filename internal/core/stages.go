package core

import (
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// stageRunner executes the pipeline's stages, landing each one's wall
// clock and counters in the run report — and, when the run is traced,
// opening one KindStage span per stage under the run's root span. The
// stage list is the execution order and golden tests key on it.
type stageRunner struct {
	report *telemetry.RunReport
	// root is the run's root span (nil when tracing is disabled); every
	// stage span is its child.
	root *trace.Span
}

// run executes one named stage, handing the stage's span (nil when
// untraced) to fn so the stage can parent deeper spans under it. The
// stage's counters are recorded only on success — and copied onto the
// span as attributes; a failing stage leaves no report entry, exactly
// as a failing pipeline returned before its stage() call historically.
func (s *stageRunner) run(name string, fn func(sp *trace.Span) (map[string]int64, error)) error {
	t0 := time.Now()
	sp := s.root.Child(name, trace.WithKind(trace.KindStage))
	counters, err := fn(sp)
	if err != nil {
		sp.End()
		return err
	}
	sp.Attrs(counters).End()
	s.report.AddStage(name, time.Since(t0), counters)
	return nil
}
