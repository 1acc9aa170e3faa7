package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// statusWriter captures the response status code (and bytes written)
// for the instrumentation middleware. WriteHeader-less handlers imply
// 200 on first Write, matching net/http.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// statusClass renders a code as its Prometheus-conventional class
// ("2xx", "4xx", ...).
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// instrument wraps a handler with per-route telemetry: request counts
// by status class, latency histograms, and in-flight gauge. The route
// label is the registered pattern, not the raw URL, so cardinality
// stays bounded.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reg := s.metrics()
		inflight := reg.Gauge("http_inflight_requests", telemetry.L("route", route))
		inflight.Add(1)
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		d := time.Since(t0)
		inflight.Add(-1)
		reg.Counter("http_requests_total",
			telemetry.L("route", route), telemetry.L("class", statusClass(sw.status))).Inc()
		reg.Timer("http_request_seconds", telemetry.L("route", route)).Observe(d)
		reg.Counter("http_response_bytes_total", telemetry.L("route", route)).Add(int64(sw.bytes))
		telemetry.Log().Debug("http request",
			"route", route, "status", sw.status, "bytes", sw.bytes, "elapsed", d)
	}
}

// handleMetrics renders the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics().WritePrometheus(w); err != nil {
		telemetry.Log().Warn("metrics render failed", "err", err)
	}
}

// handleReport serves the pipeline's RunReport.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep := s.res.Report
	if rep == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no run report recorded"))
		return
	}
	writeJSON(w, rep)
}

// handleTrace serves the last run's trace as Chrome trace-event JSON —
// the same bytes -trace-out writes, fetchable for Perfetto without
// shell access to the serving host.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.res.Trace
	if tr == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("run was not traced (start yvserve with -trace)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := tr.WriteChrome(w); err != nil {
		telemetry.Log().Warn("trace render failed", "err", err)
	}
}

// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in (the
// yvserve -pprof flag) because profiles expose internals that have no
// place on a public deployment surface.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
