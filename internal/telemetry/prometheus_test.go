package telemetry

import (
	"strconv"
	"strings"
	"testing"
)

// parseProm parses Prometheus text lines into a map of series → value,
// skipping comments. It fails the test on any malformed line — the
// scrape-format contract the /metrics endpoint relies on.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "TYPE" {
				t.Fatalf("malformed comment line %q", line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown type in %q", line)
			}
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil && raw != "+Inf" && raw != "-Inf" && raw != "NaN" {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if strings.Contains(name, "{") && !strings.HasSuffix(name, "}") {
			t.Fatalf("unbalanced labels in %q", line)
		}
		out[name] = v
	}
	return out
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", L("route", "/a"), L("class", "2xx")).Add(3)
	r.Counter("req_total", L("route", "/b"), L("class", "5xx")).Add(1)
	r.Gauge("inflight").Add(2)
	h := r.Histogram("lat_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	series := parseProm(t, text)

	if v := series[`req_total{route="/a",class="2xx"}`]; v != 3 {
		t.Errorf("labeled counter = %v, want 3 in:\n%s", v, text)
	}
	if v := series["inflight"]; v != 2 {
		t.Errorf("gauge = %v, want 2", v)
	}
	if v := series[`lat_seconds_bucket{le="0.1"}`]; v != 1 {
		t.Errorf("le=0.1 bucket = %v, want 1", v)
	}
	if v := series[`lat_seconds_bucket{le="+Inf"}`]; v != 3 {
		t.Errorf("+Inf bucket = %v, want 3", v)
	}
	if v := series["lat_seconds_count"]; v != 3 {
		t.Errorf("count = %v, want 3", v)
	}
	if v := series["lat_seconds_sum"]; v != 5.55 {
		t.Errorf("sum = %v, want 5.55", v)
	}
	// One TYPE header per family, before its samples.
	if strings.Count(text, "# TYPE req_total counter") != 1 {
		t.Errorf("req_total TYPE header count wrong:\n%s", text)
	}
	if strings.Count(text, "# TYPE lat_seconds histogram") != 1 {
		t.Errorf("lat_seconds TYPE header count wrong:\n%s", text)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", L("q", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `c_total{q="a\"b\\c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("escaped output missing %q:\n%s", want, sb.String())
	}
}

// unescapeLabel is the scrape-side inverse of escapeLabel, per the
// Prometheus text-format rules: \\, \n, and \" are the only escapes.
func unescapeLabel(t *testing.T, v string) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] != '\\' {
			b.WriteByte(v[i])
			continue
		}
		i++
		if i >= len(v) {
			t.Fatalf("dangling backslash in %q", v)
		}
		switch v[i] {
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		case '"':
			b.WriteByte('"')
		default:
			t.Fatalf("unknown escape \\%c in %q", v[i], v)
		}
	}
	return b.String()
}

// TestLabelEscapingRoundTrip pins the full escape cycle: every
// adversarial label value must survive render → parse → unescape
// unchanged, or a scraper would record a different label than the one
// the pipeline emitted.
func TestLabelEscapingRoundTrip(t *testing.T) {
	values := []string{
		`plain`,
		`a"b`,
		`back\slash`,
		"line\nbreak",
		`mixed \" of \\ everything` + "\n" + `even "quoted\nfake" escapes`,
		`trailing backslash \`,
		"\n\n",
		`\\n`, // literal backslash-backslash-n, not an escape sequence
	}
	for _, v := range values {
		if got := unescapeLabel(t, escapeLabel(v)); got != v {
			t.Errorf("round trip of %q = %q", v, got)
		}
	}

	// And through the full exposition pipeline: render a counter with the
	// adversarial value, extract the quoted label back out of the text,
	// unescape, compare.
	for i, v := range values {
		r := NewRegistry()
		name := "rt_" + strconv.Itoa(i) + "_total"
		r.Counter(name, L("q", v)).Inc()
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		text := sb.String()
		start := strings.Index(text, name+`{q="`)
		if start < 0 {
			t.Fatalf("series for %q missing:\n%s", v, text)
		}
		raw := text[start+len(name)+4:]
		// The value ends at the first unescaped quote.
		end := -1
		for j := 0; j < len(raw); j++ {
			if raw[j] == '\\' {
				j++
				continue
			}
			if raw[j] == '"' {
				end = j
				break
			}
		}
		if end < 0 {
			t.Fatalf("unterminated label value for %q:\n%s", v, text)
		}
		if got := unescapeLabel(t, raw[:end]); got != v {
			t.Errorf("exposition round trip of %q = %q", v, got)
		}
	}
}
