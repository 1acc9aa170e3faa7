package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// call invokes a middleware-wrapped handler directly (for synthetic
// routes that are not registered on the mux).
func call(h http.HandlerFunc, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h(rec, req)
	return rec
}

func jsonError(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("body is not a JSON error: %q", rec.Body.String())
	}
	return e.Error
}

// TestPanicRecovery: a panicking handler yields a JSON 500 and a counter
// increment, and the server keeps answering afterwards.
func TestPanicRecovery(t *testing.T) {
	s, _, _ := testServer(t)
	s.Metrics = telemetry.NewRegistry()

	boom := s.handler("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	rec := call(boom, "/boom")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	jsonError(t, rec)

	// The server is still alive and the panic is visible in /metrics.
	get(t, s, "/api/stats?certainty=0.3", http.StatusOK)
	series := scrape(t, s)
	if v := series[`http_panics_total{route="boom"}`]; v != 1 {
		t.Errorf("http_panics_total = %v, want 1", v)
	}
	if v := series[`http_requests_total{route="boom",class="5xx"}`]; v != 1 {
		t.Errorf("5xx count = %v, want 1", v)
	}
}

// TestPanicAfterPartialWrite: under a deadline the response is buffered,
// so a handler that writes half a body and then panics still produces a
// clean JSON 500 instead of garbage + error.
func TestPanicAfterPartialWrite(t *testing.T) {
	s, _, _ := testServer(t)
	s.Metrics = telemetry.NewRegistry()
	s.RequestTimeout = time.Second

	h := s.handler("halfway", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"partial":`))
		panic("mid-body")
	})
	rec := call(h, "/halfway")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "partial") {
		t.Errorf("partial output leaked: %q", rec.Body.String())
	}
	jsonError(t, rec)
}

// TestLoadShedding: requests beyond MaxInflight get JSON 503 with
// Retry-After and an http_shed_total increment; capacity frees up again
// once the slow request finishes.
func TestLoadShedding(t *testing.T) {
	s, _, _ := testServer(t)
	s.Metrics = telemetry.NewRegistry()
	s.MaxInflight = 1

	entered := make(chan struct{})
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	slow := s.handler("slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		writeJSON(w, map[string]string{"ok": "true"})
	})

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- call(slow, "/slow") }()
	<-entered

	rec := call(s.handler("fast", s.handleStats), "/api/stats?certainty=0.3")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity request = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("503 lacks Retry-After")
	}
	jsonError(t, rec)

	close(release)
	if slowRec := <-done; slowRec.Code != http.StatusOK {
		t.Fatalf("slow request = %d, want 200", slowRec.Code)
	}

	// Capacity is back: the same route answers normally now.
	rec = call(s.handler("fast", s.handleStats), "/api/stats?certainty=0.3")
	if rec.Code != http.StatusOK {
		t.Fatalf("request after drain = %d, want 200", rec.Code)
	}

	series := scrape(t, s)
	if v := series[`http_shed_total{route="fast"}`]; v != 1 {
		t.Errorf("http_shed_total = %v, want 1", v)
	}
	if v := series[`http_requests_total{route="fast",class="5xx"}`]; v != 1 {
		t.Errorf("shed 5xx count = %v, want 1", v)
	}
}

// TestRequestDeadline: a handler that outlives RequestTimeout yields an
// immediate JSON 503 and an http_timeouts_total increment; its late
// output is discarded.
func TestRequestDeadline(t *testing.T) {
	s, _, _ := testServer(t)
	s.Metrics = telemetry.NewRegistry()
	s.RequestTimeout = 20 * time.Millisecond

	release := make(chan struct{})
	defer close(release)
	stuck := s.handler("stuck", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("you should never see this"))
		<-release
	})
	rec := call(stuck, "/stuck")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request = %d, want 503", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "never see") {
		t.Errorf("stale handler output leaked: %q", rec.Body.String())
	}
	msg := jsonError(t, rec)
	if !strings.Contains(msg, "deadline") {
		t.Errorf("error %q does not mention the deadline", msg)
	}
	series := scrape(t, s)
	if v := series[`http_timeouts_total{route="stuck"}`]; v != 1 {
		t.Errorf("http_timeouts_total = %v, want 1", v)
	}
}

// TestFastRequestsUnaffectedByDeadline: the buffered path is transparent
// for handlers that finish in time — status, headers, and body all pass
// through.
func TestFastRequestsUnaffectedByDeadline(t *testing.T) {
	s, _, _ := testServer(t)
	s.RequestTimeout = 5 * time.Second
	body := get(t, s, "/api/stats?certainty=0.3", http.StatusOK)
	var out struct {
		Records int `json:"records"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Records == 0 {
		t.Error("buffered response dropped the body")
	}
	rec := call(s.handler("nf", s.handleNotFound), "/api/nosuch")
	if rec.Code != http.StatusNotFound {
		t.Errorf("buffered 404 = %d", rec.Code)
	}
}

// TestStatusCodeTable pins the full error surface: 400 for malformed
// requests, 404 for lookup misses and unknown paths, 405 (with Allow) for
// a wrong method on a real route, 500 for panics, 503 for shed load —
// every body a JSON error object.
func TestStatusCodeTable(t *testing.T) {
	s, _, res := testServer(t)
	s.Metrics = telemetry.NewRegistry()
	if len(res.Matches) == 0 {
		t.Fatal("no matches")
	}

	cases := []struct {
		name   string
		method string
		path   string
		want   int
	}{
		{"bad certainty", http.MethodGet, "/api/search?last=Foa&certainty=abc", http.StatusBadRequest},
		{"missing name", http.MethodGet, "/api/search?certainty=0.3", http.StatusBadRequest},
		{"bad book id", http.MethodGet, "/api/entity?book=xyz", http.StatusBadRequest},
		{"self pair", http.MethodGet, "/api/pair?a=7&b=7", http.StatusBadRequest},
		{"unknown book", http.MethodGet, "/api/entity?book=42", http.StatusNotFound},
		{"unknown pair", http.MethodGet, "/api/pair?a=1&b=2", http.StatusNotFound},
		{"unknown endpoint", http.MethodGet, "/api/nosuch", http.StatusNotFound},
		{"unknown endpoint, other method", http.MethodPost, "/api/nosuch", http.StatusNotFound},
		{"wrong method", http.MethodPost, "/api/search?last=Foa", http.StatusMethodNotAllowed},
		{"wrong method", http.MethodDelete, "/api/entity?book=42", http.StatusMethodNotAllowed},
		{"wrong method", http.MethodPut, "/metrics", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: %s %s = %d, want %d", tc.name, tc.method, tc.path, rec.Code, tc.want)
			continue
		}
		if allow := rec.Header().Get("Allow"); (tc.want == http.StatusMethodNotAllowed) != (allow == "GET, HEAD") {
			t.Errorf("%s: %s %s answered %d with Allow %q", tc.name, tc.method, tc.path, rec.Code, allow)
		}
		jsonError(t, rec)
	}

	// 500: panic path.
	rec := call(s.handler("p", func(w http.ResponseWriter, r *http.Request) { panic("x") }), "/p")
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panic route = %d, want 500", rec.Code)
	}
	jsonError(t, rec)

	// 503: shed path (capacity zero-width: one request already counted
	// by the panic above is gone, so hold one open).
	s.MaxInflight = 1
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	slow := s.handler("hold", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	go call(slow, "/hold")
	<-entered
	rec = call(s.handler("shed", s.handleStats), "/api/stats")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("shed route = %d, want 503", rec.Code)
	}
	jsonError(t, rec)
}

// TestEmptyResultsSerializeAsArrays: empty search results are [] (not
// null), and narrative events always carry an "alternatives" array.
func TestEmptyResultsSerializeAsArrays(t *testing.T) {
	s, g, _ := testServer(t)

	body := get(t, s, "/api/search?last=zzzznosuchname&certainty=0.3", http.StatusOK)
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["entities"]) == "null" {
		t.Errorf(`empty search serialized "entities": null`)
	}
	var ents []json.RawMessage
	if err := json.Unmarshal(raw["entities"], &ents); err != nil || len(ents) != 0 {
		t.Errorf("entities = %s, want []", raw["entities"])
	}

	book := g.Collection.Records[0].BookID
	body = get(t, s, "/api/narrative?book="+jsonInt(book)+"&certainty=0.3", http.StatusOK)
	var nar struct {
		Subject string `json:"subject"`
		Events  []map[string]json.RawMessage
	}
	if err := json.Unmarshal(body, &nar); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(nar.Subject) != nar.Subject {
		t.Errorf("subject %q has stray spaces", nar.Subject)
	}
	for i, ev := range nar.Events {
		alts, ok := ev["alternatives"]
		if !ok {
			t.Errorf("event %d omits alternatives", i)
			continue
		}
		if string(alts) == "null" {
			t.Errorf("event %d serialized alternatives: null", i)
		}
	}
}

func jsonInt(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestJoinName pins the trimming join used for entity names and
// narrative subjects.
func TestJoinName(t *testing.T) {
	cases := []struct{ first, last, want string }{
		{"Guido", "Foa", "Guido Foa"},
		{"Guido", "", "Guido"},
		{"", "Foa", "Foa"},
		{"", "", ""},
	}
	for _, tc := range cases {
		if got := joinName(tc.first, tc.last); got != tc.want {
			t.Errorf("joinName(%q, %q) = %q, want %q", tc.first, tc.last, got, tc.want)
		}
	}
}
