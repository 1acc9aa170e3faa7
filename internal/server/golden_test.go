package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current responses, indented")

// goldenRequests is the fixed request list whose response bodies were
// captured before the query layer was rebuilt on a partition memo and a
// name index; the pair and the error body were added later, still from the
// indented encoder. MaxResults is 5 for all of them, so the last=Levi
// searches are truncated and the others are not. Every request answers 200
// except the ones in goldenStatus.
var goldenRequests = []string{
	"/api/search?last=Levi&certainty=0.2",
	"/api/search?last=Levi&certainty=0.4",
	"/api/search?first=cesare&last=LEVI&certainty=0.2",
	"/api/search?first=cesare&last=LEVI&certainty=0.4",
	"/api/search?first=iSACCO&certainty=0.2",
	"/api/search?first=iSACCO&certainty=0.4",
	"/api/search?last=Nobody&certainty=0.2",
	"/api/search?last=Nobody&certainty=0.4",
	"/api/entity?book=1000007&certainty=0.2",
	"/api/entity?book=1000007&certainty=0.4",
	"/api/narrative?book=1000007&certainty=0.2",
	"/api/narrative?book=1000007&certainty=0.4",
	"/api/stats?certainty=0.2",
	"/api/stats?certainty=0.4",
	"/api/pair?a=1000367&b=1000368",
	"/api/search?last=Levi&certainty=NaN",
}

var goldenStatus = map[string]int{
	"/api/search?last=Levi&certainty=NaN": http.StatusBadRequest,
}

// TestGoldenResponses holds the response bodies token-identical to the ones
// testdata/golden.txt recorded: the file keeps the indented bodies the
// server once sent, and each compact body, indented, must equal its entry.
// Only whitespace may differ on the wire, and every body must be compact:
// one line, ending in a newline.
func TestGoldenResponses(t *testing.T) {
	s, _, _ := testServer(t)
	s.MaxResults = 5
	var got bytes.Buffer
	for _, path := range goldenRequests {
		code := http.StatusOK
		if c, ok := goldenStatus[path]; ok {
			code = c
		}
		body := get(t, s, path, code)
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if compact.WriteByte('\n'); !bytes.Equal(compact.Bytes(), body) {
			t.Errorf("GET %s: body is not compact:\n%s", path, body)
		}
		fmt.Fprintf(&got, "### GET %s\n", path)
		if err := json.Indent(&got, body, "", "  "); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	const file = "testdata/golden.txt"
	if *updateGolden {
		if err := os.WriteFile(file, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("responses differ from %s at line %d:\n got %s\nwant %s", file, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("responses differ from %s in length: got %d lines, want %d", file, len(gl), len(wl))
	}
}
