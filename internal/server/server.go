// Package server exposes a resolved collection over HTTP — the paper's
// deployment surface: "a person searching for perished relatives can
// control the size of the response by tuning a certainty parameter in a
// Web-query interface", while "a user app relaying historical
// information ... requires a single deterministic answer".
//
// Endpoints (all JSON):
//
//	GET /api/search?first=&last=&certainty=0.3   relative search
//	GET /api/entity?book=1016196&certainty=0.3   the report's entity
//	GET /api/narrative?book=1016196&certainty=0.3 the entity's narrative
//	GET /api/pair?a=1016196&b=1016197            re-score one report pair
//	GET /api/stats                               collection statistics
//	GET /api/report                              the pipeline's RunReport
//	GET /api/trace                               the run's Chrome trace-event JSON
//	GET /metrics                                 Prometheus text format
//
// Every handler runs behind an instrumentation middleware recording
// per-route request counts by status class, latency histograms, and
// response sizes into the server's telemetry registry — the same one
// the pipeline stages report into, so one /metrics scrape shows both.
// Under the instrumentation sits a resilience layer (resilience.go):
// load shedding beyond MaxInflight (JSON 503 + Retry-After), a
// per-request deadline (JSON 503 on expiry), and panic recovery (JSON
// 500; the server keeps serving).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/narrative"
	"repro/internal/record"
	"repro/internal/telemetry"
)

// Server serves one resolution.
type Server struct {
	res  *core.Resolution
	coll *record.Collection
	mux  *http.ServeMux
	// DefaultCertainty applies when the query omits the parameter.
	DefaultCertainty float64
	// MaxResults caps search responses.
	MaxResults int
	// MaxInflight caps concurrent requests across all instrumented
	// routes; excess requests are shed with JSON 503 + Retry-After.
	// Zero means unlimited.
	MaxInflight int
	// RequestTimeout bounds how long a client waits on one request; a
	// handler that misses the deadline yields a JSON 503. Zero disables
	// the deadline.
	RequestTimeout time.Duration
	// Metrics is the registry behind /metrics and the request
	// middleware; nil falls back to telemetry.Default() (which is also
	// where the pipeline reports unless overridden).
	Metrics *telemetry.Registry

	inflight atomic.Int64
}

// New builds a server over a finished resolution. The collection is the
// one the resolution was computed over (used for narratives, which want
// the raw values).
func New(res *core.Resolution, coll *record.Collection) *Server {
	s := &Server{
		res:              res,
		coll:             coll,
		mux:              http.NewServeMux(),
		DefaultCertainty: 0.0,
		MaxResults:       50,
	}
	s.mux.HandleFunc("GET /api/search", s.handler("/api/search", s.handleSearch))
	s.mux.HandleFunc("GET /api/entity", s.handler("/api/entity", s.handleEntity))
	s.mux.HandleFunc("GET /api/narrative", s.handler("/api/narrative", s.handleNarrative))
	s.mux.HandleFunc("GET /api/pair", s.handler("/api/pair", s.handlePair))
	s.mux.HandleFunc("GET /api/stats", s.handler("/api/stats", s.handleStats))
	s.mux.HandleFunc("GET /api/report", s.handler("/api/report", s.handleReport))
	s.mux.HandleFunc("GET /api/trace", s.handler("/api/trace", s.handleTrace))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Unmatched paths get a JSON 404 (and land in the middleware's
	// counters) instead of net/http's plain-text default.
	s.mux.HandleFunc("/", s.handler("other", s.handleNotFound))
	return s
}

// handler is the standard middleware stack: instrumentation outermost,
// so shed/timeout/panic outcomes are counted like any other status, then
// the resilience layer, then the handler itself.
func (s *Server) handler(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrument(route, s.resilient(route, h))
}

func (s *Server) metrics() *telemetry.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return telemetry.Default()
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	httpError(w, http.StatusNotFound, fmt.Errorf("no such endpoint %s", r.URL.Path))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// entityJSON is the wire form of a resolved entity.
type entityJSON struct {
	Reports   []int64             `json:"reports"`
	Name      string              `json:"name"`
	Values    map[string][]string `json:"values"`
	Narrative string              `json:"narrative,omitempty"`
}

// joinName joins name parts with single spaces, skipping missing parts
// — "Guido"+"" is "Guido", not "Guido ".
func joinName(first, last string) string {
	switch {
	case first == "":
		return last
	case last == "":
		return first
	}
	return first + " " + last
}

func toJSON(e *core.Entity, withNarrative bool) entityJSON {
	out := entityJSON{Reports: e.Reports, Values: make(map[string][]string)}
	first, _ := e.Best(record.FirstName)
	last, _ := e.Best(record.LastName)
	out.Name = joinName(first, last)
	for t, vs := range e.Values {
		for _, v := range vs {
			out.Values[t.String()] = append(out.Values[t.String()], v.Value)
		}
	}
	if withNarrative {
		out.Narrative = e.Narrative()
	}
	return out
}

func (s *Server) certainty(r *http.Request) (float64, error) {
	raw := r.URL.Query().Get("certainty")
	if raw == "" {
		return s.DefaultCertainty, nil
	}
	c, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(c) || math.IsInf(c, 0) {
		// ParseFloat accepts "NaN" and "Inf", which would silently break
		// the sorted certainty cut; reject them like any other bad input.
		return 0, fmt.Errorf("bad certainty %q", raw)
	}
	return c, nil
}

// handlePair re-scores an arbitrary report pair through the resolution's
// cached record profiles — repeated queries pay feature extraction once
// per report, not once per request.
func (s *Server) handlePair(w http.ResponseWriter, r *http.Request) {
	a, errA := strconv.ParseInt(r.URL.Query().Get("a"), 10, 64)
	b, errB := strconv.ParseInt(r.URL.Query().Get("b"), 10, 64)
	if errA != nil || errB != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("need numeric a and b book ids"))
		return
	}
	m, err := s.res.ScorePair(a, b)
	if err != nil {
		// Self-pairing is a malformed request; only unknown BookIDs are
		// lookup misses.
		code := http.StatusNotFound
		if errors.Is(err, core.ErrSelfPair) {
			code = http.StatusBadRequest
		}
		httpError(w, code, err)
		return
	}
	writeJSON(w, struct {
		A          int64   `json:"a"`
		B          int64   `json:"b"`
		Score      float64 `json:"score"`
		BlockScore float64 `json:"block_score"`
	}{A: m.Pair.A, B: m.Pair.B, Score: m.Score, BlockScore: m.BlockScore})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	certainty, err := s.certainty(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	q := core.Query{
		First:     r.URL.Query().Get("first"),
		Last:      r.URL.Query().Get("last"),
		Certainty: certainty,
	}
	if q.First == "" && q.Last == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("need first or last"))
		return
	}
	// One entity past the cap is all it takes to know the answer was cut.
	q.Limit = s.MaxResults + 1
	hits := s.res.Search(q)
	truncated := false
	if len(hits) > s.MaxResults {
		hits = hits[:s.MaxResults]
		truncated = true
	}
	out := struct {
		Certainty float64      `json:"certainty"`
		Truncated bool         `json:"truncated"`
		Entities  []entityJSON `json:"entities"`
	}{Certainty: q.Certainty, Truncated: truncated,
		// Non-nil even when empty: clients always see "entities": [].
		Entities: make([]entityJSON, 0, len(hits))}
	for _, e := range hits {
		out.Entities = append(out.Entities, toJSON(e, false))
	}
	writeJSON(w, out)
}

func (s *Server) bookEntity(w http.ResponseWriter, r *http.Request) (*core.Entity, bool) {
	certainty, err := s.certainty(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return nil, false
	}
	book, err := strconv.ParseInt(r.URL.Query().Get("book"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad book id"))
		return nil, false
	}
	e, ok := s.res.EntityOf(book, certainty)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("report %d not found", book))
		return nil, false
	}
	return e, true
}

func (s *Server) handleEntity(w http.ResponseWriter, r *http.Request) {
	e, ok := s.bookEntity(w, r)
	if !ok {
		return
	}
	writeJSON(w, toJSON(e, true))
}

func (s *Server) handleNarrative(w http.ResponseWriter, r *http.Request) {
	e, ok := s.bookEntity(w, r)
	if !ok {
		return
	}
	nb := &narrative.Builder{Coll: s.coll}
	first, _ := e.Best(record.FirstName)
	last, _ := e.Best(record.LastName)
	n := nb.Build(joinName(first, last), e.Reports)

	type eventJSON struct {
		Kind         string   `json:"kind"`
		Text         string   `json:"text"`
		Confidence   float64  `json:"confidence"`
		Support      []int64  `json:"support"`
		Alternatives []string `json:"alternatives"`
	}
	// Slices are initialized non-nil so empty results serialize as []
	// and "alternatives" is always present, never null or omitted.
	out := struct {
		Subject string      `json:"subject"`
		Reports []int64     `json:"reports"`
		Events  []eventJSON `json:"events"`
	}{Subject: n.Subject, Reports: n.Reports, Events: make([]eventJSON, 0, len(n.Events))}
	for _, ev := range n.Events {
		ej := eventJSON{
			Kind:         ev.Kind.String(),
			Text:         ev.Text,
			Confidence:   ev.Confidence,
			Support:      ev.Support,
			Alternatives: make([]string, 0, len(ev.Alternatives)),
		}
		for _, alt := range ev.Alternatives {
			ej.Alternatives = append(ej.Alternatives, alt.Text)
		}
		out.Events = append(out.Events, ej)
	}
	writeJSON(w, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	certainty, err := s.certainty(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	entities, multi := s.res.EntityCounts(certainty)
	writeJSON(w, struct {
		Records     int     `json:"records"`
		Matches     int     `json:"ranked_matches"`
		Certainty   float64 `json:"certainty"`
		Entities    int     `json:"entities"`
		MultiReport int     `json:"multi_report_entities"`
	}{
		Records:     s.coll.Len(),
		Matches:     len(s.res.Matches),
		Certainty:   certainty,
		Entities:    entities,
		MultiReport: multi,
	})
}

// writeJSON is the single success path: every handler responds through
// it so Content-Type and encoding are uniform.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus writes v as indented JSON with the given status.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers (and possibly part of the body) are gone; log is the
		// only remaining channel.
		telemetry.Log().Warn("response encode failed", "err", err)
	}
}

// httpError is the single error path: a JSON {"error": ...} body with
// the given status, never plain text.
func httpError(w http.ResponseWriter, code int, err error) {
	writeJSONStatus(w, code, map[string]string{"error": err.Error()})
}
