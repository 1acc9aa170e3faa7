package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tables.golden from the current output")

var goldenPath = filepath.Join("testdata", "tables.golden")

// testRunner returns the runner every test in this package uses: 150
// persons per preset, and a clock that advances one second per reading,
// so each timed interval prints as exactly one second.
func testRunner() *Runner {
	r := NewRunner(Quick)
	r.PersonsOverride = 150
	var now time.Time
	r.clock = func() time.Time {
		now = now.Add(time.Second)
		return now
	}
	return r
}

// TestEveryExperimentRuns drives the complete registry at a tiny scale
// and compares its whole output, every table, figure and ablation in
// registry order, with testdata/tables.golden. The output does not
// depend on GOMAXPROCS or on any worker count. Regenerate the golden,
// only for an intended output change, with
// go test -run '^TestEveryExperimentRuns$' ./internal/experiments/ -update.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := testRunner()
	var out bytes.Buffer
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			if err := e.Run(r, &out); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out.WriteString("\n")
		})
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("registry output differs from %s (-update rewrites it):\n%s", goldenPath, lineDiff(string(want), string(got)))
	}
}

// lineDiff lists the lines, by number, where got differs from want; the
// first 20 are enough to tell which tables moved.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if shown == 20 {
			b.WriteString("...\n")
			break
		}
		fmt.Fprintf(&b, "line %d:\n-%s\n+%s\n", i+1, wl, gl)
		shown++
	}
	return b.String()
}
