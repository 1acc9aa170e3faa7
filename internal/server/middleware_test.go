package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mfiblocks"
	"repro/internal/telemetry"
)

// testServerWithRegistry runs the pipeline and the server against one
// shared registry, so a single /metrics scrape exposes both.
func testServerWithRegistry(t *testing.T, reg *telemetry.Registry) (*Server, *dataset.Generated, *core.Resolution) {
	t.Helper()
	cfg := dataset.ItalyConfig()
	cfg.Persons = 120
	g, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Preprocess: true, Gazetteer: g.Gaz, Metrics: reg}
	res, err := core.Run(opts, g.Collection)
	if err != nil {
		t.Fatal(err)
	}
	s := New(res, g.Collection)
	s.Metrics = reg
	return s, g, res
}

// scrape fetches /metrics and parses every sample line into series →
// value, failing on malformed lines.
func scrape(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

func TestMiddlewareCountsAndMetricsEndpoint(t *testing.T) {
	s, _, _ := testServer(t)
	s.Metrics = telemetry.NewRegistry() // isolate from other tests

	for i := 0; i < 3; i++ {
		get(t, s, "/api/stats?certainty=0.3", http.StatusOK)
	}
	get(t, s, "/api/stats?certainty=abc", http.StatusBadRequest)
	get(t, s, "/api/nosuch", http.StatusNotFound)

	series := scrape(t, s)
	if v := series[`http_requests_total{route="/api/stats",class="2xx"}`]; v != 3 {
		t.Errorf("stats 2xx count = %v, want 3", v)
	}
	if v := series[`http_requests_total{route="/api/stats",class="4xx"}`]; v != 1 {
		t.Errorf("stats 4xx count = %v, want 1", v)
	}
	if v := series[`http_requests_total{route="other",class="4xx"}`]; v != 1 {
		t.Errorf("fallback 4xx count = %v, want 1", v)
	}
	if v := series[`http_request_seconds_count{route="/api/stats"}`]; v != 4 {
		t.Errorf("latency histogram count = %v, want 4", v)
	}
	if v := series[`http_request_seconds_bucket{route="/api/stats",le="+Inf"}`]; v != 4 {
		t.Errorf("latency +Inf bucket = %v, want 4", v)
	}
	if v := series[`http_inflight_requests{route="/api/stats"}`]; v != 0 {
		t.Errorf("inflight gauge = %v, want 0 at rest", v)
	}
	if v := series[`http_response_bytes_total{route="/api/stats"}`]; v <= 0 {
		t.Errorf("response bytes = %v, want > 0", v)
	}
}

// TestMetricsIncludesPipelineStages asserts one scrape surfaces both
// HTTP middleware series and the pipeline's stage timings — the
// acceptance criterion for /metrics.
func TestMetricsIncludesPipelineStages(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, _, _ := testServerWithRegistry(t, reg)
	get(t, s, "/api/stats", http.StatusOK)
	series := scrape(t, s)
	for _, stage := range []string{"ingest", "blocking", "scoring", "rank"} {
		key := `core_stage_seconds_count{stage="` + stage + `"}`
		if v := series[key]; v != 1 {
			t.Errorf("%s = %v, want 1", key, v)
		}
	}
	if v := series["mfiblocks_pairs_total"]; v <= 0 {
		t.Errorf("mfiblocks_pairs_total = %v, want > 0", v)
	}
	if v := series["core_candidate_pairs_total"]; int(v) == 0 {
		t.Errorf("core_candidate_pairs_total missing")
	}
}

func TestMiddlewareConcurrentRequests(t *testing.T) {
	s, _, _ := testServer(t)
	s.Metrics = telemetry.NewRegistry()
	var wg sync.WaitGroup
	const perWorker = 10
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := httptest.NewRequest(http.MethodGet, "/api/stats", nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("concurrent GET = %d", rec.Code)
				}
			}
		}()
	}
	wg.Wait()
	series := scrape(t, s)
	if v := series[`http_requests_total{route="/api/stats",class="2xx"}`]; v != 4*perWorker {
		t.Errorf("concurrent count = %v, want %d", v, 4*perWorker)
	}
}

func TestReportEndpoint(t *testing.T) {
	s, g, res := testServer(t)
	body := get(t, s, "/api/report", http.StatusOK)
	var rep struct {
		SchemaVersion int `json:"schema_version"`
		Records       int `json:"records"`
		Stages        []struct {
			Name string `json:"name"`
		} `json:"stages"`
		Blocking *struct {
			Pairs int `json:"pairs"`
		} `json:"blocking"`
		Scoring *struct {
			Matches int `json:"matches"`
		} `json:"scoring"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != telemetry.ReportSchemaVersion {
		t.Errorf("schema_version = %d", rep.SchemaVersion)
	}
	if rep.Records != g.Collection.Len() {
		t.Errorf("records = %d, want %d", rep.Records, g.Collection.Len())
	}
	if rep.Blocking == nil || rep.Blocking.Pairs != len(res.Blocking.Pairs) {
		t.Errorf("blocking pairs mismatch: %+v", rep.Blocking)
	}
	if rep.Scoring == nil || rep.Scoring.Matches != len(res.Matches) {
		t.Errorf("scoring matches mismatch: %+v", rep.Scoring)
	}
	wantStages := []string{"ingest", "blocking", "scoring", "rank"}
	if len(rep.Stages) != len(wantStages) {
		t.Fatalf("stages = %+v", rep.Stages)
	}
	for i, w := range wantStages {
		if rep.Stages[i].Name != w {
			t.Errorf("stage[%d] = %q, want %q", i, rep.Stages[i].Name, w)
		}
	}
	// The scoring block always carries the profile and interner fields,
	// even when they are zero (this fixture has no model, so no profile
	// is built). Consumers key on presence, not value.
	var raw struct {
		Scoring map[string]json.RawMessage `json:"scoring"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"profiles_built", "profile_hits", "profile_misses", "interned_strings"} {
		if _, ok := raw.Scoring[k]; !ok {
			t.Errorf("scoring report missing %q field", k)
		}
	}
}

func TestNotFoundIsJSON(t *testing.T) {
	s, _, _ := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/api/nosuch", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("code = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("404 Content-Type = %q", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("404 body not a JSON error: %q", rec.Body.String())
	}
}

func TestErrorBodiesAreJSON(t *testing.T) {
	s, _, _ := testServer(t)
	for _, path := range []string{
		"/api/pair?a=abc&b=1",
		"/api/entity?book=xyz",
		"/api/search?certainty=0.3",
	} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q", path, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("GET %s body not a JSON error: %q", path, rec.Body.String())
		}
	}
}

func TestPprofOptIn(t *testing.T) {
	s, _, _ := testServer(t)
	// Off by default: the JSON 404 fallback answers.
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pprof reachable without opt-in: %d", rec.Code)
	}
	s.EnablePprof()
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof after EnablePprof = %d", rec.Code)
	}
}
