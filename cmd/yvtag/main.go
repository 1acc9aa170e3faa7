// Command yvtag is the tagging application of Section 5.1 (Figure 7) in
// CLI form: it runs blocking over a records file, presents candidate
// pairs ordered by descending similarity with their differences
// highlighted, and collects {y,p,m,n,N} grades into a tags file. A batch
// mode (-auto with a gold file) replays the archival experts through the
// simulator instead.
//
// Usage:
//
//	yvtag -in records.jsonl -out tags.tsv            # interactive
//	yvtag -in records.jsonl -gold gold.jsonl -auto -out tags.tsv
//
// The records file is JSONL or a .yvst store, as for yver.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/store"
)

func main() {
	in := flag.String("in", "", "input records, JSONL or a .yvst store (required)")
	goldPath := flag.String("gold", "", "gold.jsonl for -auto mode")
	auto := flag.Bool("auto", false, "simulate the expert instead of prompting")
	out := flag.String("out", "tags.tsv", "output tags file")
	limit := flag.Int("limit", 50, "candidate pairs to grade (interactive mode)")
	seed := flag.Int64("seed", 2016, "expert-simulation seed")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "yvtag: -in is required")
		os.Exit(2)
	}
	coll, torn, err := store.Load(*in)
	if err != nil {
		fatal(err)
	}
	if torn > 0 {
		fmt.Fprintf(os.Stderr, "yvtag: skipped torn tail in %s (%d bytes)\n", *in, torn)
	}

	pre, err := core.Preprocess(coll)
	if err != nil {
		fatal(err)
	}
	res, err := mfiblocks.Run(mfiblocks.NewConfig(), pre)
	if err != nil {
		fatal(err)
	}
	var pairs []record.Pair
	scores := map[record.Pair]float64{}
	if err := res.EachPair(func(p record.Pair, s float64) {
		pairs = append(pairs, p)
		scores[p] = s
	}); err != nil {
		fatal(err)
	}
	// Order by descending similarity, as the tagging app did.
	sort.Slice(pairs, func(i, j int) bool {
		si, sj := scores[pairs[i]], scores[pairs[j]]
		if si != sj {
			return si > sj
		}
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	fmt.Printf("%d candidate pairs from blocking\n", len(pairs))

	var tagged []dataset.TaggedPair
	if *auto {
		if *goldPath == "" {
			fmt.Fprintln(os.Stderr, "yvtag: -auto requires -gold")
			os.Exit(2)
		}
		gold := readGold(*goldPath)
		tagger := &dataset.Tagger{Gold: gold, Coll: coll, Rng: rand.New(rand.NewSource(*seed))}
		tagged = tagger.TagPairs(pairs).Pairs
	} else {
		tagged = interactive(coll, scores, pairs, *limit)
	}

	writeTags(*out, tagged)
	hist := dataset.NewTagSet(tagged).CountByTag()
	fmt.Printf("wrote %d tags to %s (", len(tagged), *out)
	for t := dataset.NumTags - 1; t >= 0; t-- {
		fmt.Printf("%s:%d ", dataset.Tag(t), hist[t])
	}
	fmt.Println(")")
}

// interactive prompts for grades, highlighting attribute differences.
func interactive(coll *record.Collection, scores map[record.Pair]float64, pairs []record.Pair, limit int) []dataset.TaggedPair {
	sc := bufio.NewScanner(os.Stdin)
	var out []dataset.TaggedPair
	for i, p := range pairs {
		if i >= limit {
			break
		}
		a, b := coll.ByID(p.A), coll.ByID(p.B)
		fmt.Printf("\n[%d/%d] similarity %.3f\n", i+1, min(limit, len(pairs)), scores[p])
		printSideBySide(a, b)
		fmt.Print("match? [y]es [p]robably [m]aybe [n]o-probably [N]o [q]uit: ")
		if !sc.Scan() {
			break
		}
		var tag dataset.Tag
		switch strings.TrimSpace(sc.Text()) {
		case "y":
			tag = dataset.Yes
		case "p":
			tag = dataset.ProbablyYes
		case "m":
			tag = dataset.Maybe
		case "n":
			tag = dataset.ProbablyNo
		case "N":
			tag = dataset.No
		case "q":
			return out
		default:
			fmt.Println("skipped")
			continue
		}
		out = append(out, dataset.TaggedPair{Pair: p, Tag: tag})
	}
	return out
}

// printSideBySide renders two records with differing values flagged, the
// CLI equivalent of the tagging app's yellow highlighting.
func printSideBySide(a, b *record.Record) {
	for t := 0; t < record.NumItemTypes; t++ {
		ty := record.ItemType(t)
		va, vb := a.Values(ty), b.Values(ty)
		if len(va) == 0 && len(vb) == 0 {
			continue
		}
		marker := " "
		if strings.Join(va, "|") != strings.Join(vb, "|") {
			marker = "*"
		}
		fmt.Printf("  %s %-22s %-28s %s\n", marker, ty, strings.Join(va, ", "), strings.Join(vb, ", "))
	}
}

type goldRow struct {
	BookID int64 `json:"book_id"`
	Entity int   `json:"entity"`
	Family int   `json:"family"`
}

func readGold(path string) *dataset.Gold {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	gold := dataset.NewGold()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var row goldRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			fatal(err)
		}
		gold.Add(row.BookID, row.Entity, row.Family)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	return gold
}

func writeTags(path string, tagged []dataset.TaggedPair) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, tp := range tagged {
		fmt.Fprintf(w, "%d\t%d\t%s\n", tp.Pair.A, tp.Pair.B, tp.Tag)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "yvtag: %v\n", err)
	os.Exit(1)
}
