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
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

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
		res:        res,
		coll:       coll,
		mux:        http.NewServeMux(),
		MaxResults: 50,
	}
	s.route("/api/search", s.handler("/api/search", s.handleSearch))
	s.route("/api/entity", s.handler("/api/entity", s.handleEntity))
	s.route("/api/narrative", s.handler("/api/narrative", s.handleNarrative))
	s.route("/api/pair", s.handler("/api/pair", s.handlePair))
	s.route("/api/stats", s.handler("/api/stats", s.handleStats))
	s.route("/api/report", s.handler("/api/report", s.handleReport))
	s.route("/api/trace", s.handler("/api/trace", s.handleTrace))
	s.route("/metrics", s.handleMetrics)
	// Unmatched paths get a JSON 404 (and land in the middleware's
	// counters) instead of net/http's plain-text default.
	s.mux.HandleFunc("/", s.handler("other", s.handleNotFound))
	return s
}

// route mounts h on GET (and so HEAD) of path. Any other method on the
// path answers JSON 405 with Allow; without that pattern the request
// would fall through to the catch-all and read as an unknown endpoint.
func (s *Server) route(path string, h http.HandlerFunc) {
	s.mux.HandleFunc("GET "+path, h)
	s.mux.HandleFunc(path, s.handler(path, s.handleMethodNotAllowed))
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

func (s *Server) handleMethodNotAllowed(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Allow", "GET, HEAD")
	httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed on %s", r.Method, r.URL.Path))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// entityJSON is the wire form of a resolved entity.
type entityJSON struct {
	Reports   []int64      `json:"reports"`
	Name      string       `json:"name"`
	Values    entityValues `json:"values"`
	Narrative string       `json:"narrative,omitempty"`
}

// entityValues is an entity's values on the wire: an object from item
// type name to the type's values, most supported first. It is the
// entity's own map, written without building a map[string][]string.
type entityValues map[record.ItemType][]core.ValueSupport

// valueKey is one item type and its object key, quoted, with the colon.
type valueKey struct {
	t   record.ItemType
	key string
}

// valueOrder lists the item types by name, byte-wise ascending: the
// order encoding/json gives a map's string keys.
var valueOrder = func() []valueKey {
	ts := record.AllItemTypes()
	slices.SortFunc(ts, func(a, b record.ItemType) int { return strings.Compare(a.String(), b.String()) })
	keys := make([]valueKey, len(ts))
	for i, t := range ts {
		keys[i] = valueKey{t, string(appendQuoted(nil, t.String())) + ":"}
	}
	return keys
}()

// MarshalJSON writes the object keys in valueOrder, skipping types with
// no value: the bytes json.Marshal gives the same values as a
// map[string][]string keyed by type name.
func (v entityValues) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 512)
	b = append(b, '{')
	for _, k := range valueOrder {
		vs := v[k.t]
		if len(vs) == 0 {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(b, k.key...)
		b = append(b, '[')
		for i, x := range vs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendQuoted(b, x.Value)
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendQuoted appends s as a JSON string exactly as encoding/json
// writes one with HTML escaping on: <, > and & as \u003c, \u003e and
// \u0026; the short escapes for \b, \f, \n, \r and \t and \u00XX for
// the other control bytes; U+2028 and U+2029 escaped; and every byte
// of invalid UTF-8 as \ufffd.
func appendQuoted(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
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
	out := entityJSON{Reports: e.Reports, Values: e.Values}
	first, _ := e.Best(record.FirstName)
	last, _ := e.Best(record.LastName)
	out.Name = joinName(first, last)
	if withNarrative {
		out.Narrative = e.Narrative()
	}
	return out
}

// parseCertainty reads the query's certainty parameter; omitted, it is 0.
func parseCertainty(r *http.Request) (float64, error) {
	raw := r.URL.Query().Get("certainty")
	if raw == "" {
		return 0, nil
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
	certainty, err := parseCertainty(r)
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
	certainty, err := parseCertainty(r)
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
	certainty, err := parseCertainty(r)
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

// writeJSONStatus writes v with the given status as compact JSON, one
// line ending in a newline, in a single Write. Pipe a body through
// `python3 -m json.tool` to read it indented.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	if err := json.NewEncoder(w).Encode(v); err != nil {
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
