package robopt

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// designRef matches a cross-reference into DESIGN.md's numbered list —
// "deviation 13", "note 18", "deviations 11 and 13" — across a line break.
var designRef = regexp.MustCompile(`(?i)\b(?:deviations?|notes?)\s+#?(\d+(?:\s*(?:,|and|or|–|-)\s*\d+)*)`)

// designItems returns the numbers of the items in DESIGN.md's "Deviations
// and engineering notes" section.
func designItems(t *testing.T) map[int]bool {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Deviations and engineering notes\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Deviations and engineering notes" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	items := map[int]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(\d+)\. `).FindAllStringSubmatch(section, -1) {
		n, _ := strconv.Atoi(m[1])
		items[n] = true
	}
	if len(items) == 0 {
		t.Fatal("DESIGN.md's deviations section lists no numbered items")
	}
	return items
}

// TestDesignReferencesResolve: every "deviation N" or "note N" in README.md,
// EXPERIMENTS.md, DESIGN.md and the comments of this module's Go files names
// an item of DESIGN.md's numbered "Deviations and engineering notes" list, so
// renumbering or deleting an item cannot leave a reference dangling. bench/
// is a module of its own and is not read.
func TestDesignReferencesResolve(t *testing.T) {
	items := designItems(t)
	digits := regexp.MustCompile(`\d+`)
	check := func(where, text string) {
		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			for _, d := range digits.FindAllString(m[1], -1) {
				if n, _ := strconv.Atoi(d); !items[n] {
					t.Errorf("%s: %q names no item of DESIGN.md's deviations list", where, m[0])
				}
			}
		}
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, para := range strings.Split(string(raw), "\n\n") {
			check(doc+" paragraph "+strconv.Itoa(i+1), para)
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			check(fset.Position(cg.Pos()).String(), cg.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// docBudgets caps each big document: README at its size when the budget was
// set, rounded up to the next 1 000 bytes, DESIGN and EXPERIMENTS at their
// size plus at most 10 %, rounded up the same way, and CHANGES.md with room
// for its next entries. A doc grows only by cutting elsewhere or by raising
// its line here, in review.
var docBudgets = map[string]int64{
	"README.md":      45_000,
	"DESIGN.md":      56_000,
	"EXPERIMENTS.md": 50_000,
	"CHANGES.md":     64_000,
}

// TestDocBudgets: README.md, DESIGN.md, EXPERIMENTS.md and CHANGES.md stay
// within their byte budgets.
func TestDocBudgets(t *testing.T) {
	for doc, budget := range docBudgets {
		fi, err := os.Stat(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > budget {
			t.Errorf("%s is %d bytes, over its budget of %d", doc, fi.Size(), budget)
		}
	}
}

// prRef matches a pull-request attribution such as "PR 35" or "PRs 14–28",
// also when a line break falls inside it.
var prRef = regexp.MustCompile(`\bPRs?\s+\d`)

// TestDocsStateNoPRHistory: README.md, DESIGN.md and EXPERIMENTS.md above its
// appendix say what the code does now, not which pull request made it so.
// That history lives in git log, CHANGES.md and ROADMAP.md, which this test
// does not read.
func TestDocsStateNoPRHistory(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if doc == "EXPERIMENTS.md" {
			text, _, _ = strings.Cut(text, "\n## Appendix")
		}
		for _, loc := range prRef.FindAllStringIndex(text, -1) {
			line := strings.Count(text[:loc[0]], "\n") + 1
			t.Errorf("%s:%d attributes to a pull request (%q): state what the code does now", doc, line, text[loc[0]:loc[1]])
		}
	}
}
