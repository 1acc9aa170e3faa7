package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// compareFiles is -compare a.json b.json: one row per workload and
// end-to-end metric, a the parent and b the change, and a non-zero exit
// when any row regressed.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two -out files, got %d", len(args))
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	if n := compareSets(a, b, false); n > 0 {
		return fmt.Errorf("%d regressed", n)
	}
	return nil
}

// compareSets prints the comparison and returns how many rows regressed.
// A row is unresolved, not ok, when the runs of either side spread wider
// than the bound — unless the two sides do not overlap at all. With
// same, the two sets are runs of one commit on one seed: recall and
// precision must repeat exactly, and a timing may differ by its bound in
// neither direction.
func compareSets(a, b *resultFile, same bool) (regressed int) {
	fmt.Printf("%-15s %-12s %12s %12s %8s %6s %6s  %s\n", "workload", "metric", "a median", "b median", "delta", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, wl.Name, d.Name), values(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// worse is the share of a's median by which b is worse.
			worse := (mb - ma) / math.Abs(ma)
			if d.Better == "higher" {
				worse = -worse
			}
			if same {
				worse = math.Abs(worse)
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case same && d.Unit == "ratio" && ma != mb:
				verdict = "regressed (must repeat exactly)"
			case sp > d.Bound && overlap(va, vb):
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
			}
			if verdict != "ok" && verdict != "unresolved" {
				regressed++
			}
			fmt.Printf("%-15s %-12s %12.4f %12.4f %+7.1f%% %5.1f%% %5.1f%%  %s\n",
				wl.Name, d.Name, ma, mb, 100*(mb-ma)/math.Abs(ma), 100*sp, 100*d.Bound, verdict)
		}
	}
	return regressed
}

func values(f *resultFile, workload, metric string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// overlap reports whether the two samples' ranges intersect.
func overlap(a, b []float64) bool {
	return quantile(a, 0) <= quantile(b, 1) && quantile(b, 0) <= quantile(a, 1)
}

// selfCheckRounds is how often a set of -selfcheck runs each workload.
// One run per side is not enough on this host: a slow phase of a minute
// or two moves single runs by up to 30% (README "Noise"), and the median
// of three runs two minutes apart does not land in it.
const selfCheckRounds = 3

// selfCheck measures two sets of runs of this binary, each run in a fresh
// process — every set going selfCheckRounds times through the workloads,
// the second in reverse order, so a drift of the machine does not land on
// the same workloads both times — and compares the two sets against the
// benchmark's own bounds.
func selfCheck(seed int64, seconds float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var sets [2]*resultFile
	for i := range sets {
		path := filepath.Join(outDir, fmt.Sprintf("selfcheck-%d.json", i))
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
		for round := 0; round < selfCheckRounds; round++ {
			for j := range workloads {
				wl := workloads[j]
				if i == 1 {
					wl = workloads[len(workloads)-1-j]
				}
				cmd := exec.Command(self, "-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-outdir", outDir, "-out", path)
				cmd.Stderr = os.Stderr
				fmt.Fprintf(os.Stderr, "selfcheck: set %d, round %d, %s\n", i, round, wl.Name)
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s: %w", wl.Name, err)
				}
			}
		}
		if sets[i], err = readResults(path); err != nil {
			return err
		}
	}
	if n := compareSets(sets[0], sets[1], true); n > 0 {
		return fmt.Errorf("selfcheck: %d rows disagree beyond their bound", n)
	}
	return nil
}
