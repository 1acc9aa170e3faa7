package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/record"
	"repro/internal/telemetry"
)

// routes of one session, in request order.
var routes = [5]string{"/api/search", "/api/entity", "/api/narrative", "/api/pair", "/api/stats"}

// routeName is the route's name in span and metric names.
func routeName(i int) string { return strings.TrimPrefix(routes[i], "/api/") }

const (
	rSearch = iota
	rEntity
	rNarrative
	rPair
	rStats
)

// session is one user's visit: look a relative up by name, open the
// report's entity and its narrative, compare it with another report, and
// read the collection statistics — all at one slider position.
type session struct {
	certainty   float64
	book, other int64
	last        string
	urls        [5]string
}

type sessionResult struct {
	wall   time.Duration
	status [5]int
	body   [5][]byte
}

// planner draws sessions from the seed. Every planner of one env draws
// the same sequence.
type planner struct {
	e    *env
	rng  *rand.Rand
	n    int                  // sessions drawn so far
	seen map[float64]struct{} // sweep: certainties already used
}

func newPlanner(e *env) *planner {
	p := &planner{e: e, rng: rand.New(rand.NewSource(e.in.seed)), seen: map[float64]struct{}{}}
	for _, c := range e.hot {
		p.seen[c] = struct{}{}
	}
	return p
}

func (p *planner) next(n int) []session {
	out := make([]session, n)
	for i := range out {
		out[i] = p.one()
	}
	return out
}

func (p *planner) one() session {
	recs := p.e.res.Collection.Records
	var s session
	var first string
	// A report without a last name cannot be searched for; draw again.
	for {
		r := recs[p.rng.Intn(len(recs))]
		last, ok := r.First(record.LastName)
		if !ok {
			continue
		}
		s.book, s.last = r.BookID, last
		first, _ = r.First(record.FirstName)
		break
	}
	for s.other = s.book; s.other == s.book; {
		s.other = recs[p.rng.Intn(len(recs))].BookID
	}
	// Three searches in four give both names, as the paper's "Guido Foa"
	// query does. The first name costs a names.SameClass test per entity
	// (≈6× a last-name-only search), so an even split would put the median
	// session in the gap between two modes, where it does not repeat.
	if p.rng.Intn(4) == 0 {
		first = ""
	}

	s.certainty = p.e.hot[p.n%len(p.e.hot)]
	if p.e.wl.sweep {
		// A realistic cut (the score at a golden-ratio-spread rank) nudged
		// to a value no session used before, so the cluster cache cannot
		// hold it.
		for g := p.n; ; g++ {
			_, frac := math.Modf(float64(g) * 0.6180339887498949)
			s.certainty = p.e.scoreAtRank(frac) + float64(p.n)*1e-9
			if _, dup := p.seen[s.certainty]; !dup {
				break
			}
		}
		p.seen[s.certainty] = struct{}{}
	}
	p.n++

	c := "certainty=" + strconv.FormatFloat(s.certainty, 'g', -1, 64)
	book := "book=" + strconv.FormatInt(s.book, 10)
	s.urls[rSearch] = routes[rSearch] + "?last=" + url.QueryEscape(s.last) + "&" + c
	if first != "" {
		s.urls[rSearch] += "&first=" + url.QueryEscape(first)
	}
	s.urls[rEntity] = routes[rEntity] + "?" + book + "&" + c
	s.urls[rNarrative] = routes[rNarrative] + "?" + book + "&" + c
	s.urls[rPair] = routes[rPair] + "?a=" + strconv.FormatInt(s.book, 10) + "&b=" + strconv.FormatInt(s.other, 10)
	s.urls[rStats] = routes[rStats] + "?" + c
	return s
}

// runSession issues the session's five requests through ServeHTTP, in
// process: no sockets, so the number is the server's own work.
func (e *env) runSession(s session) sessionResult {
	var r sessionResult
	t0 := time.Now()
	for i, u := range s.urls {
		r.status[i], r.body[i] = e.request(u)
	}
	r.wall = time.Since(t0)
	return r
}

func (e *env) request(u string) (status int, body []byte) {
	rec := httptest.NewRecorder()
	e.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
	return rec.Code, rec.Body.Bytes()
}

// checkSession is the per-op correctness check of the serve workloads.
func (e *env) checkSession(s session, r *sessionResult) error {
	for i, code := range r.status {
		if code != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", s.urls[i], code, r.body[i])
		}
	}
	type entity struct {
		Reports []int64             `json:"reports"`
		Values  map[string][]string `json:"values"`
	}
	var search struct {
		Entities []entity `json:"entities"`
	}
	if err := json.Unmarshal(r.body[rSearch], &search); err != nil {
		return fmt.Errorf("%s: %w", s.urls[rSearch], err)
	}
	if n := len(search.Entities); n == 0 || n > e.srv.MaxResults {
		return fmt.Errorf("%s: %d entities", s.urls[rSearch], n)
	}
	for _, ent := range search.Entities {
		if !containsFold(ent.Values[record.LastName.String()], s.last) {
			return fmt.Errorf("%s: entity %v lacks the last name", s.urls[rSearch], ent.Reports)
		}
	}
	var ent entity
	if err := json.Unmarshal(r.body[rEntity], &ent); err != nil {
		return fmt.Errorf("%s: %w", s.urls[rEntity], err)
	}
	if !containsID(ent.Reports, s.book) {
		return fmt.Errorf("%s: entity %v lacks the book", s.urls[rEntity], ent.Reports)
	}
	var narr struct {
		Reports []int64           `json:"reports"`
		Events  []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(r.body[rNarrative], &narr); err != nil {
		return fmt.Errorf("%s: %w", s.urls[rNarrative], err)
	}
	if !containsID(narr.Reports, s.book) {
		return fmt.Errorf("%s: narrative of %v lacks the book", s.urls[rNarrative], narr.Reports)
	}
	var pair struct {
		Score      float64 `json:"score"`
		BlockScore float64 `json:"block_score"`
	}
	if err := json.Unmarshal(r.body[rPair], &pair); err != nil {
		return fmt.Errorf("%s: %w", s.urls[rPair], err)
	}
	want, err := e.res.ScorePair(s.book, s.other)
	if err != nil || pair.Score != want.Score || pair.BlockScore != want.BlockScore {
		return fmt.Errorf("%s: got %+v, ScorePair gives %+v (%v)", s.urls[rPair], pair, want, err)
	}
	var stats struct {
		Records  int `json:"records"`
		Entities int `json:"entities"`
	}
	if err := json.Unmarshal(r.body[rStats], &stats); err != nil {
		return fmt.Errorf("%s: %w", s.urls[rStats], err)
	}
	if stats.Records != e.corp.coll.Len() || stats.Entities <= 0 || stats.Entities > stats.Records {
		return fmt.Errorf("%s: %+v", s.urls[rStats], stats)
	}
	return nil
}

func containsFold(vs []string, v string) bool {
	for _, x := range vs {
		if strings.EqualFold(x, v) {
			return true
		}
	}
	return false
}

func containsID(ids []int64, id int64) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// checkServerCounters fails the run if the resilience layer shed, timed
// out or recovered any request: a workload on which operations fail
// measures the failure path, not the server.
func (e *env) checkServerCounters() error {
	for _, fam := range []string{telemetry.FamilyHTTPShed, telemetry.FamilyHTTPTimeouts, telemetry.FamilyHTTPPanics} {
		for _, route := range routes {
			if n := registry.Counter(fam, telemetry.L("route", route)).Value(); n != 0 {
				return fmt.Errorf("%s{route=%s} = %d, want 0", fam, route, n)
			}
		}
	}
	return nil
}
