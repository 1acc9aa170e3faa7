// Command yvtrain trains the ranked-resolution ADTree from a records file
// and a tags file (as written by yvtag) and saves the model as JSON for
// yver -model.
//
// Usage:
//
//	yvtrain -in records.jsonl|records.yvst -tags tags.tsv -out model.json
//	        [-maybe omit|no] [-rounds 10] [-cv 10]
//
// The records file is JSONL or a .yvst store, as for yver.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/adtree"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/gazetteer"
	"repro/internal/record"
	"repro/internal/store"
)

func main() {
	in := flag.String("in", "", "input records, JSONL or a .yvst store (required)")
	tagsPath := flag.String("tags", "", "tags.tsv from yvtag (required)")
	out := flag.String("out", "model.json", "output model file")
	maybeMode := flag.String("maybe", "omit", "Maybe handling: omit, no (fold into non-match)")
	rounds := flag.Int("rounds", 10, "boosting rounds")
	cv := flag.Int("cv", 10, "cross-validation folds for the accuracy report (0 to skip)")
	flag.Parse()

	if *in == "" || *tagsPath == "" {
		fmt.Fprintln(os.Stderr, "yvtrain: -in and -tags are required")
		os.Exit(2)
	}

	coll, torn, err := store.Load(*in)
	if err != nil {
		fatal(err)
	}
	if torn > 0 {
		fmt.Fprintf(os.Stderr, "yvtrain: skipped torn tail in %s (%d bytes)\n", *in, torn)
	}
	tags := readTags(*tagsPath)

	var mode core.MaybeMode
	switch *maybeMode {
	case "omit":
		mode = core.OmitMaybe
	case "no":
		mode = core.MaybeAsNo
	default:
		fmt.Fprintf(os.Stderr, "yvtrain: unknown -maybe %q\n", *maybeMode)
		os.Exit(2)
	}

	gaz := gazetteer.Builtin(0)
	cfg := adtree.NewTrainConfig()
	cfg.Rounds = *rounds

	insts, _, err := core.Instances(tags, coll, gaz, mode)
	if err != nil {
		fatal(err)
	}
	if *cv > 1 {
		if acc, err := core.CrossValidate(cfg, insts, *cv); err == nil {
			fmt.Printf("%d-fold CV accuracy over %d instances: %.1f%%\n", *cv, len(insts), 100*acc)
		} else {
			fmt.Fprintf(os.Stderr, "yvtrain: cross-validation skipped: %v\n", err)
		}
	}

	model, err := adtree.Train(cfg, features.Defs(), insts)
	if err != nil {
		fatal(err)
	}
	of, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := model.Save(of); err != nil {
		fatal(err)
	}
	if err := of.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("trained %d rounds on %d tagged pairs; model saved to %s\n", model.Rounds, tags.Len(), *out)
	fmt.Println("model:")
	fmt.Print(model.String())
}

// readTags parses the yvtag TSV format: bookA \t bookB \t grade. A
// report paired with itself, or a pair graded twice, is an error naming
// the line(s).
func readTags(path string) *dataset.TagSet {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	byName := map[string]dataset.Tag{}
	for t := 0; t < dataset.NumTags; t++ {
		byName[dataset.Tag(t).String()] = dataset.Tag(t)
	}
	var tagged []dataset.TaggedPair
	seen := map[record.Pair]int{} // pair -> line that graded it
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 3 {
			fatal(fmt.Errorf("tags line %d: want 3 tab-separated fields, got %d", line, len(parts)))
		}
		a, errA := strconv.ParseInt(parts[0], 10, 64)
		b, errB := strconv.ParseInt(parts[1], 10, 64)
		if errA != nil || errB != nil {
			fatal(fmt.Errorf("tags line %d: bad BookIDs", line))
		}
		tag, ok := byName[parts[2]]
		if !ok {
			fatal(fmt.Errorf("tags line %d: unknown grade %q", line, parts[2]))
		}
		if a == b {
			fatal(fmt.Errorf("tags line %d: %w: report %d", line, core.ErrSelfPair, a))
		}
		p := record.MakePair(a, b)
		if first, dup := seen[p]; dup {
			fatal(fmt.Errorf("tags line %d: pair %d %d already graded on line %d", line, p.A, p.B, first))
		}
		seen[p] = line
		tagged = append(tagged, dataset.TaggedPair{Pair: p, Tag: tag})
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	return dataset.NewTagSet(tagged)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "yvtrain: %v\n", err)
	os.Exit(1)
}
