package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/record"
	"repro/internal/telemetry"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload. The driver reads Correct,
// Attempted, Failed and Metrics; the rest is for -out files and people.
type runResult struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// OpQuartilesMS are the first and third quartile of the op wall
	// times the op_ms median was taken over.
	OpQuartilesMS [2]float64 `json:"op_quartiles_ms,omitempty"`
	// OpWallMS are the wall times of the pipeline workloads' few ops, in
	// the order they ran.
	OpWallMS []float64 `json:"op_wall_ms,omitempty"`
	Failures []string  `json:"failures,omitempty"`
	Notes    []string  `json:"notes,omitempty"`
}

// opSamples collects the timed operations of one run.
type opSamples struct {
	wallMS    []float64     // one per op
	failed    []bool        // parallel to wallMS
	cpuMS     []float64     // one per op, where ops run one at a time…
	roundCPU  time.Duration // …or the CPU of all rounds of concurrent ops
	failures  []string      // first few check failures, for the log
	nFailures int
}

// opCPUMS is the CPU of one op: the median over ops that ran alone, or
// for two concurrent clients — whose CPU the process cannot tell apart,
// and where a collection of the cluster cache lands on one round in five
// — the CPU of all rounds over all their ops.
func (s *opSamples) opCPUMS() float64 {
	if len(s.cpuMS) > 0 {
		return median(s.cpuMS)
	}
	return ms(s.roundCPU) / float64(len(s.wallMS))
}

func (s *opSamples) add(wall time.Duration, err error) {
	s.wallMS = append(s.wallMS, ms(wall))
	s.failed = append(s.failed, err != nil)
	if err != nil {
		s.nFailures++
		if len(s.failures) < 5 {
			s.failures = append(s.failures, err.Error())
		}
	}
}

// opMS is the median op wall time, a failed op counting as the slowest
// sample whatever it measured.
func (s *opSamples) opMS() (med, q1, q3 float64) {
	slowest := 0.0
	for _, v := range s.wallMS {
		slowest = max(slowest, v)
	}
	vs := make([]float64, len(s.wallMS))
	for i, v := range s.wallMS {
		if s.failed[i] {
			v = slowest
		}
		vs[i] = v
	}
	return median(vs), quantile(vs, 0.25), quantile(vs, 0.75)
}

// result starts the run's result from the ops timed and checked.
func (s *opSamples) result(cfg runConfig) *runResult {
	return &runResult{
		Workload:  cfg.wl.Name,
		Seed:      cfg.in.seed,
		Correct:   s.nFailures == 0,
		Attempted: len(s.wallMS),
		Failed:    s.nFailures,
		Failures:  s.failures,
		Metrics:   map[string]metricValue{},
	}
}

// runConfig is what the command line asks of one run.
type runConfig struct {
	wl      *workloadDef
	in      inputs
	seconds float64 // scales the workload's op count; nominalSeconds is the count as sized
	ops     int     // when > 0, exactly this many ops (per client) whatever seconds says
	outDir  string
}

// opCount is how many ops the run times, per client.
func (cfg runConfig) opCount() int {
	if cfg.ops > 0 {
		return cfg.ops
	}
	return max(2, int(math.Round(float64(cfg.wl.ops)*cfg.seconds/nominalSeconds)))
}

// measure is the end-to-end run: tracing off, every op checked, every
// end-to-end metric reported. One schedule for every workload: set up
// once, then time a fixed number of ops. setup_s is the wall time from
// the start of main to the first timed op.
func measure(cfg runConfig, start time.Time) (*runResult, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e, err := setUp(cfg.wl, cfg.in, dir)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(start).Seconds()

	m := &measurement{e: e}
	if cfg.wl.serve {
		m.sessions(cfg.opCount())
		err = e.checkServerCounters()
	} else {
		err = m.pipelineOps(cfg.opCount())
	}
	if err != nil {
		return nil, err
	}

	pairs := make([]record.Pair, len(e.ref))
	for i, match := range e.ref {
		pairs[i] = match.Pair
	}
	quality := eval.Evaluate(pairs, e.truth)
	opMed, q1, q3 := m.opMS()
	r := m.result(cfg)
	r.OpQuartilesMS = [2]float64{q1, q3}
	if !cfg.wl.serve {
		r.OpWallMS = m.wallMS
	}
	r.Metrics = map[string]metricValue{
		"setup_s":     {setupS, "s"},
		"op_ms":       {opMed, "ms"},
		"op_cpu_ms":   {m.opCPUMS(), "ms"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"recall":      {quality.Recall, "ratio"},
		"precision":   {quality.Precision, "ratio"},
	}
	return r, nil
}

// measurement is the state the timed ops of one run share.
type measurement struct {
	opSamples
	e *env
}

// pipelineOps times n pipeline ops one at a time (one closed-loop client)
// and checks each against the reference op. The collector runs between
// ops, outside the timed interval, so the garbage of the checks is not
// charged to the next op.
func (m *measurement) pipelineOps(n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		cpu0, t0 := cpuTime(), time.Now()
		matches, report, err := m.e.pipelineOp()
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		m.add(wall, m.e.checkMatches(matches, m.e.ref, report))
		m.cpuMS = append(m.cpuMS, ms(cpu))
	}
	return nil
}

// checkMatches is the per-op correctness check of the pipeline
// workloads: ranked order, no self or same-source pair, known BookIDs,
// bit-identical to the reference op, and for the streaming workload a
// candidate set that really went through the spill.
func (e *env) checkMatches(got, ref []core.RankedMatch, report *telemetry.RunReport) error {
	if len(got) == 0 {
		return fmt.Errorf("no matches")
	}
	if len(got) != len(ref) {
		return fmt.Errorf("%d matches, reference op had %d", len(got), len(ref))
	}
	coll := e.corp.coll
	for i, m := range got {
		if m != ref[i] {
			return fmt.Errorf("match %d is %+v, reference op had %+v", i, m, ref[i])
		}
		if i > 0 {
			p := got[i-1]
			if p.Score < m.Score || p.Score == m.Score &&
				(p.Pair.A > m.Pair.A || p.Pair.A == m.Pair.A && p.Pair.B >= m.Pair.B) {
				return fmt.Errorf("match %d out of rank order", i)
			}
		}
		ra, rb := coll.ByID(m.Pair.A), coll.ByID(m.Pair.B)
		switch {
		case ra == nil || rb == nil:
			return fmt.Errorf("match %d names an unknown report: %+v", i, m.Pair)
		case ra == rb:
			return fmt.Errorf("match %d pairs report %d with itself", i, m.Pair.A)
		case ra.Source != "" && ra.Source == rb.Source:
			return fmt.Errorf("match %d is a same-source pair: %+v", i, m.Pair)
		}
	}
	if e.wl.random && !e.wl.rescore && (report.Blocking == nil || report.Blocking.SpillRuns < 2) {
		return fmt.Errorf("streaming op did not spill: %+v", report.Blocking)
	}
	return nil
}

// sessions times n sessions from each of two closed-loop clients, in
// rounds: both clients run their share of a round concurrently, then the
// round's responses are checked outside the timed interval.
func (m *measurement) sessions(n int) {
	e := m.e
	plan := newPlanner(e)
	for done := 0; done < n; {
		perRound := min(e.wl.sessionsPerRound, n-done)
		done += perRound
		plans := make([][]session, procs)
		results := make([][]sessionResult, procs)
		for c := range plans {
			plans[c] = plan.next(perRound)
			results[c] = make([]sessionResult, perRound)
		}
		runtime.GC()
		cpu0 := cpuTime()
		var wg sync.WaitGroup
		for c := range plans {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i, sess := range plans[c] {
					results[c][i] = e.runSession(sess)
				}
			}(c)
		}
		wg.Wait()
		m.roundCPU += cpuTime() - cpu0
		for c := range plans {
			for i, sess := range plans[c] {
				m.add(results[c][i].wall, e.checkSession(sess, &results[c][i]))
			}
		}
	}
}
