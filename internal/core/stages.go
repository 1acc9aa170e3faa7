package core

import (
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// stageRunner executes the pipeline's stages, landing each one's wall
// clock in the run report — and, when the run is traced, opening one
// KindStage span per stage under the run's root span. The stage list is
// the execution order and golden tests key on it.
type stageRunner struct {
	report *telemetry.RunReport
	// root is the run's root span (nil when tracing is disabled); every
	// stage span is its child.
	root *trace.Span
}

// stageEnded, when set, is called with each stage's name as the stage
// ends, on the goroutine that ran it. It is nil in every program; the
// scale ladder sets it to sample the heap at each stage's end.
var stageEnded func(name string)

// run executes one named stage, handing the stage's span (nil when
// untraced) to fn so the stage can parent deeper spans under it. The
// stage is recorded only on success: a failing stage leaves no report
// entry.
func (s *stageRunner) run(name string, fn func(sp *trace.Span) error) error {
	t0 := time.Now()
	sp := s.root.Child(name, trace.WithKind(trace.KindStage))
	err := fn(sp)
	sp.End()
	elapsed := time.Since(t0)
	if stageEnded != nil {
		stageEnded(name)
	}
	if err != nil {
		return err
	}
	s.report.Stages = append(s.report.Stages, telemetry.StageReport{Name: name, DurationNS: elapsed.Nanoseconds()})
	return nil
}
