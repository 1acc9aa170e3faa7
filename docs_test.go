package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents that describe the code as it is now.
// ROADMAP.md and CHANGES.md are history: they name what was removed on
// purpose, so they are not checked.
var citingDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// A test, fuzz target or benchmark named in prose or in a -run
	// pattern; a trailing * stands for every name with that prefix.
	citedTestRE = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(\*?)`)
	declTestRE  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	// A repo path: it starts the token (or follows ./) and may end in a
	// Go package pattern's /... or in sentence punctuation.
	citedPathRE = regexp.MustCompile(`(?:^|[^\w./-]|\./)((?:internal|cmd|examples|benchmark)(?:/[\w.-]*)*)`)
	// DESIGN.md §7, DESIGN §7, and the sections listed after one
	// ("DESIGN.md §7, §12", "DESIGN §13/§15").
	citedSectionRE = regexp.MustCompile(`DESIGN(?:\.md)? (§\d+(?:(?:, | and | or |/)§\d+)*)`)
	sectionNumRE   = regexp.MustCompile(`§(\d+)`)
	headingRE      = regexp.MustCompile(`(?m)^## (\d+)\. `)
)

// TestDocsCiteLiveNames holds the current-state documents to the code:
// every test, fuzz target and benchmark they name is declared in some
// _test.go file, every repo path they name exists, and every DESIGN.md
// section they cite by number is a "## N." heading of DESIGN.md (inside
// DESIGN.md, a bare §N counts as such a citation).
func TestDocsCiteLiveNames(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declTestRE.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}

	for _, doc := range citingDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			at := func(format string, args ...any) {
				t.Helper()
				t.Errorf("%s:%d: "+format, append([]any{doc, i + 1}, args...)...)
			}
			for _, m := range citedTestRE.FindAllStringSubmatch(line, -1) {
				if !declaredName(declared, m[1], m[2] == "*") {
					at("%s%s is not declared in any _test.go file", m[1], m[2])
				}
			}
			for _, m := range citedPathRE.FindAllStringSubmatch(line, -1) {
				path := strings.TrimRight(strings.TrimSuffix(m[1], "/..."), ".,")
				if _, err := os.Stat(path); err != nil {
					at("path %s does not exist", path)
				}
			}
			var cites []string
			for _, m := range citedSectionRE.FindAllStringSubmatch(line, -1) {
				cites = append(cites, m[1])
			}
			if doc == "DESIGN.md" {
				cites = append(cites, line)
			}
			for _, c := range cites {
				for _, m := range sectionNumRE.FindAllStringSubmatch(c, -1) {
					if !sections[m[1]] {
						at("§%s is not a section of DESIGN.md", m[1])
					}
				}
			}
		}
	}
}

// declaredName reports whether name is declared, or with prefix set,
// whether some declared name starts with it.
func declaredName(declared map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}
