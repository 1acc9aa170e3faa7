package experiments

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// A shapeCheck tests one claim of the paper against the committed
// tables.golden; it runs no pipeline. A check that a Known deviation
// (EXPERIMENTS.md) breaks names that deviation: it is expected to fail,
// and passing fails the test, so a fix shows up instead of going unseen.
type shapeCheck struct {
	name      string
	deviation string
	check     func(t *testing.T, g goldenTables) error
}

// TestShapes runs every shape check. An expected failure is logged with
// its deviation's name.
func TestShapes(t *testing.T) {
	g := readGoldenTables(t)
	for _, c := range shapeChecks() {
		t.Run(c.name, func(t *testing.T) {
			err := c.check(t, g)
			switch {
			case c.deviation == "" && err != nil:
				t.Error(err)
			case c.deviation != "" && err == nil:
				t.Errorf("deviation %q no longer holds: the paper's claim passes; drop the deviation from this check and from EXPERIMENTS.md", c.deviation)
			case err != nil:
				t.Logf("expected failure, %s: %v", c.deviation, err)
			}
		})
	}
}

// paperTable9 is the paper's Table 9 (recall, precision), as quoted in
// EXPERIMENTS.md; the shape is the sign of each condition's change
// against Base.
var paperTable9 = []struct {
	condition string
	r, p      float64
}{
	{"Base", 0.770, 0.172},
	{"Expert Weighting", 0.886, 0.151},
	{"ExpertSim", 0.872, 0.118},
	{"SameSrc", 0.691, 0.241},
	{"Cls", 0.850, 0.204},
	{"SameSrc + Cls", 0.660, 0.325},
}

func shapeChecks() []shapeCheck {
	checks := []shapeCheck{
		{"fig15-f1-peak-ng", "Known deviation 1", func(t *testing.T, g goldenTables) error {
			ngs := g.row(t, "Figure 15:", "", "NG:")
			for _, want := range []struct {
				mms string
				ng  float64
			}{{"MaxMinSup 4:", 3.5}, {"MaxMinSup 5:", 3}, {"MaxMinSup 6:", 3}} {
				f1 := g.row(t, "Figure 15:", "", want.mms)
				if got := ngs[argmax(f1)]; got != want.ng {
					return fmt.Errorf("%s F1 peaks at NG %.1f, paper %.1f", want.mms, got, want.ng)
				}
			}
			return nil
		}},
		{"fig15-maxminsup4-dominates", "", func(t *testing.T, g goldenTables) error {
			f4 := g.row(t, "Figure 15:", "", "MaxMinSup 4:")
			for _, other := range []string{"MaxMinSup 5:", "MaxMinSup 6:"} {
				for i, f := range g.row(t, "Figure 15:", "", other) {
					if f4[i] < f {
						return fmt.Errorf("column %d: MaxMinSup 4 F1 %.3f < %s %.3f", i+1, f4[i], other, f)
					}
				}
			}
			return nil
		}},
		{"fig16-precision-falls-recall-rises", "", func(t *testing.T, g goldenTables) error {
			for _, mms := range []string{"MaxMinSup 4:", "MaxMinSup 5:", "MaxMinSup 6:"} {
				p := g.row(t, "Figure 16:", "Precision:", mms)
				for i := 1; i < len(p); i++ {
					if p[i] > p[i-1] {
						return fmt.Errorf("%s precision rises from %.3f to %.3f at column %d", mms, p[i-1], p[i], i+1)
					}
				}
				r := g.row(t, "Figure 16:", "Recall:", mms)
				if r[len(r)-1] <= r[0] {
					return fmt.Errorf("%s recall at the largest NG %.3f <= at the smallest %.3f", mms, r[len(r)-1], r[0])
				}
			}
			return nil
		}},
		{"table3-names-universal-spouse-maiden-rare", "", func(t *testing.T, g goldenTables) error {
			// Each column prints a count, then its share.
			for _, row := range []string{"Last Name", "First Name", "Spouse Name", "Maiden Name"} {
				v := g.row(t, "Table 3:", "", row)
				for col := 1; col < len(v); col += 2 {
					if names := strings.HasSuffix(row, "st Name"); names && v[col] < 90 || !names && v[col] > 30 {
						return fmt.Errorf("%s prevalence %.0f%% in column %d: want Last/First >= 90%%, Spouse/Maiden <= 30%%", row, v[col], col/2+1)
					}
				}
			}
			return nil
		}},
		{"table5-omitted-at-least-maybe-no", "", func(t *testing.T, g goldenTables) error {
			no := g.row(t, "Table 5:", "", "Maybe:=No")[1]
			omitted := g.row(t, "Table 5:", "", "Maybe values omitted")[1]
			if omitted < no {
				return fmt.Errorf("accuracy with Maybe omitted %.1f%% < Maybe:=No %.1f%%", omitted, no)
			}
			return nil
		}},
		{"table5-maybe-share", "", func(t *testing.T, g goldenTables) error {
			all := g.row(t, "Table 5:", "", "Maybe:=No")[0]
			omitted := g.row(t, "Table 5:", "", "Maybe values omitted")[0]
			// The paper's Maybe share is 611/10,016, about 6%.
			if share := (all - omitted) / all; share < 0.01 || share > 0.25 {
				return fmt.Errorf("Maybe share %.3f outside [0.01, 0.25]", share)
			}
			return nil
		}},
		{"fig8-bins-hold-every-tag", "", func(t *testing.T, g goldenTables) error {
			all := g.row(t, "Table 5:", "", "Maybe:=No")[0]
			sum := 0.0
			for _, r := range g.rows(t, "Figure 8:", "") {
				if len(r.vals) > 0 && r.label == "" {
					sum += r.vals[1] // the bin's upper edge, then N
				}
			}
			if sum != all || all < 200 {
				return fmt.Errorf("Figure 8 bins hold %.0f tagged pairs, Table 5 has %.0f (want equal, >= 200)", sum, all)
			}
			return nil
		}},
	}
	for _, c := range paperTable9[1:] {
		for col, delta := range []string{"dR", "dP"} {
			deviation := ""
			if c.condition == "Expert Weighting" && delta == "dP" {
				deviation = "Known deviation 6"
			}
			paper := [2]float64{c.r - paperTable9[0].r, c.p - paperTable9[0].p}[col]
			checks = append(checks, shapeCheck{
				name:      "table9-" + strings.NewReplacer(" + ", "+", " ", "-").Replace(c.condition) + "-" + delta,
				deviation: deviation,
				check: func(t *testing.T, g goldenTables) error {
					base := g.row(t, "Table 9:", "", "Base")[col]
					got := g.row(t, "Table 9:", "", c.condition)[col] - base
					if (got > 0) != (paper > 0) || got == 0 {
						return fmt.Errorf("%s %s = %+.3f against Base, paper %+.3f", c.condition, delta, got, paper)
					}
					return nil
				},
			})
		}
	}
	return append(checks,
		shapeCheck{"table10-mfiblocks-fewest-comparisons-most-precise", "", func(t *testing.T, g goldenTables) error {
			mfi := g.row(t, "Table 10:", "", "MFIBlocks")
			for _, r := range g.rows(t, "Table 10:", "") {
				if r.label == "MFIBlocks" || len(r.vals) != 3 {
					continue
				}
				if r.vals[2] <= mfi[2] || r.vals[1] >= mfi[1] {
					return fmt.Errorf("%s: precision %.3f, %.0f comparisons against MFIBlocks' %.3f, %.0f", r.label, r.vals[1], r.vals[2], mfi[1], mfi[2])
				}
			}
			return nil
		}},
		shapeCheck{"table10-suar-esuar-most-precise-baselines", "Known deviation 7", func(t *testing.T, g goldenTables) error {
			suar := min(g.row(t, "Table 10:", "", "SuAr")[1], g.row(t, "Table 10:", "", "ESuAr")[1])
			for _, r := range g.rows(t, "Table 10:", "") {
				if r.label == "MFIBlocks" || r.label == "SuAr" || r.label == "ESuAr" || len(r.vals) != 3 {
					continue
				}
				if r.vals[1] >= suar {
					return fmt.Errorf("%s precision %.3f >= the lower of SuAr/ESuAr, %.3f", r.label, r.vals[1], suar)
				}
			}
			return nil
		}},
		shapeCheck{"ablation-maximality-equal", "", func(t *testing.T, g goldenTables) error {
			mined := 0
			for _, line := range g.lines(t, "Ablation: Direct MFI mining", "")[1:] {
				switch f := strings.Fields(line); f[len(f)-1] {
				case "true":
					mined++
				case "-":
				default:
					return fmt.Errorf("direct and mine-all+filter MFIs differ: %q", line)
				}
			}
			if mined == 0 {
				return fmt.Errorf("no row compares the two mining strategies")
			}
			return nil
		}},
	)
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// goldenTables is tables.golden split into sections, keyed by banner
// title ("Table 9: Quality under Varying Conditions").
type goldenTables map[string][]string

func readGoldenTables(t *testing.T) goldenTables {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	g := goldenTables{}
	var title string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==") {
			title = strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==")
			continue
		}
		if title != "" && line != "" {
			g[title] = append(g[title], line)
		}
	}
	return g
}

// lines returns the body of the one section whose title starts with
// prefix; a non-empty from skips to the line after that marker.
func (g goldenTables) lines(t *testing.T, prefix, from string) []string {
	t.Helper()
	var body []string
	for title, l := range g {
		if strings.HasPrefix(title, prefix) {
			if body != nil {
				t.Fatalf("tables.golden: more than one section starts with %q", prefix)
			}
			body = l
		}
	}
	if body == nil {
		t.Fatalf("tables.golden: no section starts with %q", prefix)
	}
	if from == "" {
		return body
	}
	for i, l := range body {
		if l == from {
			return body[i+1:]
		}
	}
	t.Fatalf("tables.golden: section %q has no %q line", prefix, from)
	return nil
}

// goldenRow is one printed row: the words that lead it, then its
// numbers. A "%" or "s" suffix is dropped, and "< 0.001" reads as its
// bound, 0.001.
type goldenRow struct {
	label string
	vals  []float64
}

func (g goldenTables) rows(t *testing.T, prefix, from string) []goldenRow {
	t.Helper()
	var out []goldenRow
	for _, line := range g.lines(t, prefix, from) {
		var r goldenRow
		var label []string
		for _, f := range strings.Fields(line) {
			v, err := strconv.ParseFloat(strings.TrimRight(f, "%s"), 64)
			switch {
			case err == nil:
				r.vals = append(r.vals, v)
			case r.vals == nil && f != "<":
				label = append(label, f)
			}
		}
		r.label = strings.Join(label, " ")
		out = append(out, r)
	}
	return out
}

// row returns the numbers of the first row labelled label.
func (g goldenTables) row(t *testing.T, prefix, from, label string) []float64 {
	t.Helper()
	for _, r := range g.rows(t, prefix, from) {
		if r.label == label {
			return r.vals
		}
	}
	t.Fatalf("tables.golden: section %q has no row %q", prefix, label)
	return nil
}
