package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mfiblocks"
	"repro/internal/record"
)

func testServer(t *testing.T) (*Server, *dataset.Generated, *core.Resolution) {
	t.Helper()
	cfg := dataset.ItalyConfig()
	cfg.Persons = 250
	g, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Blocking: mfiblocks.NewConfig(), Geo: g.Gaz, Preprocess: true, Gazetteer: g.Gaz}
	res, err := core.Run(opts, g.Collection)
	if err != nil {
		t.Fatal(err)
	}
	return New(res, g.Collection), g, res
}

func get(t *testing.T, s *Server, path string, wantCode int) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("GET %s = %d, want %d (%s)", path, rec.Code, wantCode, rec.Body.String())
	}
	return rec.Body.Bytes()
}

func TestStats(t *testing.T) {
	s, g, res := testServer(t)
	body := get(t, s, "/api/stats?certainty=0.3", http.StatusOK)
	var out struct {
		Records  int `json:"records"`
		Matches  int `json:"ranked_matches"`
		Entities int `json:"entities"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Records != g.Collection.Len() {
		t.Errorf("records = %d, want %d", out.Records, g.Collection.Len())
	}
	if out.Matches != len(res.Matches) {
		t.Errorf("matches = %d, want %d", out.Matches, len(res.Matches))
	}
	if out.Entities != len(res.Clusters(0.3)) {
		t.Errorf("entities = %d", out.Entities)
	}
}

func TestSearchCertaintySlider(t *testing.T) {
	s, g, _ := testServer(t)
	// Use a real last name from the data.
	last, _ := g.Collection.Records[0].First(record.LastName)
	if last == "" {
		t.Skip("first record has no last name")
	}
	type resp struct {
		Entities []struct {
			Reports []int64 `json:"reports"`
		} `json:"entities"`
	}
	parse := func(b []byte) resp {
		var r resp
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	loose := parse(get(t, s, "/api/search?last="+last+"&certainty=-10", http.StatusOK))
	tight := parse(get(t, s, "/api/search?last="+last+"&certainty=10", http.StatusOK))
	if len(loose.Entities) == 0 || len(tight.Entities) == 0 {
		t.Fatalf("search found nothing for %q", last)
	}
	// Tight certainty = singletons only.
	for _, e := range tight.Entities {
		if len(e.Reports) != 1 {
			t.Errorf("tight search returned merged entity %v", e.Reports)
		}
	}
}

func TestEntityAndNarrative(t *testing.T) {
	s, g, _ := testServer(t)
	book := strconv.FormatInt(g.Collection.Records[0].BookID, 10)

	body := get(t, s, "/api/entity?book="+book+"&certainty=0.3", http.StatusOK)
	var ent struct {
		Reports   []int64             `json:"reports"`
		Narrative string              `json:"narrative"`
		Values    map[string][]string `json:"values"`
	}
	if err := json.Unmarshal(body, &ent); err != nil {
		t.Fatal(err)
	}
	if len(ent.Reports) == 0 || ent.Narrative == "" {
		t.Errorf("entity response incomplete: %+v", ent)
	}

	body = get(t, s, "/api/narrative?book="+book+"&certainty=0.3", http.StatusOK)
	var nar struct {
		Subject string `json:"subject"`
		Events  []struct {
			Kind       string  `json:"kind"`
			Confidence float64 `json:"confidence"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &nar); err != nil {
		t.Fatal(err)
	}
	for _, ev := range nar.Events {
		if ev.Confidence <= 0 || ev.Confidence > 1 {
			t.Errorf("event confidence %v out of range", ev.Confidence)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s, _, _ := testServer(t)
	get(t, s, "/api/search?certainty=0.3", http.StatusBadRequest)          // no name
	get(t, s, "/api/search?last=Foa&certainty=abc", http.StatusBadRequest) // bad certainty
	get(t, s, "/api/entity?book=xyz", http.StatusBadRequest)               // bad book
	get(t, s, "/api/entity?book=42", http.StatusNotFound)                  // unknown book
}

func TestNonFiniteCertaintyRejected(t *testing.T) {
	s, _, _ := testServer(t)
	// strconv.ParseFloat accepts all of these; the sorted certainty cut
	// must never see them.
	for _, raw := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "Infinity"} {
		get(t, s, "/api/search?last=Foa&certainty="+raw, http.StatusBadRequest)
		get(t, s, "/api/stats?certainty="+raw, http.StatusBadRequest)
	}
	// Ordinary finite values still pass.
	get(t, s, "/api/stats?certainty=0.5", http.StatusOK)
}

func TestPairEndpoint(t *testing.T) {
	s, _, res := testServer(t)
	if len(res.Matches) == 0 {
		t.Fatal("no ranked matches to query")
	}
	m := res.Matches[0]
	body := get(t, s, "/api/pair?a="+strconv.FormatInt(m.Pair.A, 10)+"&b="+strconv.FormatInt(m.Pair.B, 10), http.StatusOK)
	var out struct {
		A          int64   `json:"a"`
		B          int64   `json:"b"`
		Score      float64 `json:"score"`
		BlockScore float64 `json:"block_score"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != m.Pair.A || out.B != m.Pair.B {
		t.Errorf("pair echoed %d/%d, want %d/%d", out.A, out.B, m.Pair.A, m.Pair.B)
	}
	if out.Score != m.Score || out.BlockScore != m.BlockScore {
		t.Errorf("scores %v/%v, want %v/%v", out.Score, out.BlockScore, m.Score, m.BlockScore)
	}

	get(t, s, "/api/pair?a=abc&b=1", http.StatusBadRequest)
	get(t, s, "/api/pair?a=1&b=1", http.StatusBadRequest) // self pair is a client error
	get(t, s, "/api/pair?a=1&b=2", http.StatusNotFound)   // unknown books
	// Self-pairing a *known* book is still a 400, not a 404.
	known := strconv.FormatInt(m.Pair.A, 10)
	get(t, s, "/api/pair?a="+known+"&b="+known, http.StatusBadRequest)
}

// TestSearchTruncation checks the cap and that "truncated" is true exactly
// when more entities match than MaxResults lets through.
func TestSearchTruncation(t *testing.T) {
	s, _, res := testServer(t)
	// A common surname from the Italy corpus, every report its own entity.
	matching := len(res.Search(core.Query{Last: "Levi", Certainty: 10}))
	if matching < 2 {
		t.Fatalf("only %d entities match Levi", matching)
	}
	for _, max := range []int{1, matching - 1, matching, matching + 1} {
		s.MaxResults = max
		body := get(t, s, "/api/search?last=Levi&certainty=10", http.StatusOK)
		var out struct {
			Truncated bool `json:"truncated"`
			Entities  []struct{}
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if want := min(max, matching); len(out.Entities) != want {
			t.Errorf("MaxResults %d: %d entities, want %d", max, len(out.Entities), want)
		}
		if want := matching > max; out.Truncated != want {
			t.Errorf("MaxResults %d with %d matching: truncated = %v, want %v", max, matching, out.Truncated, want)
		}
	}
}
