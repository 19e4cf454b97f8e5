package skyway_test

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The documents that tell a reader which make target to run, and the
// pattern of the build-and-verify notes kept beside them. ROADMAP.md and
// CHANGES.md are history: they name targets that no longer exist on purpose.
var (
	makeCitingDocs = []string{"README.md", "TESTING.md", "DESIGN.md"}
	skillNotes     = ".*/skills/*/SKILL.md"

	makeRule   = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*)\s*:([^=]|$)`)
	ciMakeStep = regexp.MustCompile(`(?m)^\s*(?:-\s+)?run:\s*make\s+([a-z][a-z0-9-]*)`)
	codeSpan   = regexp.MustCompile("`make\\s+([a-z][a-z0-9-]*)")
	fence      = regexp.MustCompile("(?ms)^[ \t]*```[^\n]*\n(.*?)^[ \t]*```")
	shellMake  = regexp.MustCompile(`(?m)(?:^|&&|\|\||;)[ \t]*make[ \t]+([a-z][a-z0-9-]*)`)
)

// fencedMakes finds the `make X` commands of a document's fenced code
// blocks: a line that starts with one, or one chained after `&&`, `||` or
// `;`. Each match is [start, end, target start, target end] in b.
func fencedMakes(b []byte) [][]int {
	var out [][]int
	for _, f := range fence.FindAllSubmatchIndex(b, -1) {
		body := b[f[2]:f[3]]
		for _, m := range shellMake.FindAllSubmatchIndex(body, -1) {
			out = append(out, []int{f[2] + m[0], f[2] + m[1], f[2] + m[2], f[2] + m[3]})
		}
	}
	return out
}

// TestMakeTargetsCited fails when a `make X` step of the CI workflow, or a
// backticked `make X` or a fenced shell line's `make X` in a current
// document or skill note, names a target the Makefile does not define: a
// removed target takes its citations with it.
func TestMakeTargetsCited(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(mk), -1) {
		defined[m[1]] = true
	}
	if !defined["check"] {
		t.Fatalf("no `check` rule among the Makefile's targets %v: the rule pattern is stale", sortedTargets(defined))
	}

	cite := func(file string, find func([]byte) [][]int) int {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		ms := find(b)
		for _, m := range ms {
			if target := string(b[m[2]:m[3]]); !defined[target] {
				line := 1 + strings.Count(string(b[:m[0]]), "\n")
				t.Errorf("%s:%d: `make %s`: no such target; the Makefile defines %v", file, line, target, sortedTargets(defined))
			}
		}
		return len(ms)
	}
	all := func(re *regexp.Regexp) func([]byte) [][]int {
		return func(b []byte) [][]int { return re.FindAllSubmatchIndex(b, -1) }
	}
	if n := cite(".github/workflows/ci.yml", all(ciMakeStep)); n == 0 {
		t.Error("no `run: make` step found in the CI workflow: the step pattern is stale")
	}
	notes, err := filepath.Glob(skillNotes)
	if err != nil {
		t.Fatal(err)
	}
	spans, fenced := 0, 0
	for _, doc := range append(makeCitingDocs, notes...) {
		spans += cite(doc, all(codeSpan))
		fenced += cite(doc, fencedMakes)
	}
	if spans == 0 {
		t.Error("no backticked `make` citation found in the documents: the citation pattern is stale")
	}
	if fenced == 0 {
		t.Error("no `make` line found in the documents' fenced blocks: the fence pattern is stale")
	}
}

func sortedTargets(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
