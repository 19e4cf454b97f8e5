package framework

import (
	"fmt"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// RunFixture loads the fixture package at importPath (conventionally under
// testdata/src/), runs one analyzer over it, and checks the diagnostics
// against the fixture's `// want` comments — the analysistest contract:
//
//	b := a + heap.Addr(n) // want `raw heap\.Addr arithmetic`
//
// Every want comment must be matched by a diagnostic on its line, every
// diagnostic must be claimed by a want comment, and the quoted text is a
// regular expression matched against the diagnostic message. Both
// backquoted and double-quoted patterns are accepted.
func RunFixture(t *testing.T, a *Analyzer, importPath string) {
	t.Helper()
	pkgs, err := Load(".", importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", importPath, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s resolved to %d packages, want 1", importPath, len(pkgs))
	}
	pkg := pkgs[0]

	findings, err := RunAll(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, importPath, err)
	}

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" -> expectations
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pattern, ok := parseWant(c.Text)
				if !ok {
					continue
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", pkg.Fset.Position(c.Pos()), pattern, err)
				}
				key := lineKey(pkg.Fset.Position(c.Pos()))
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}

	for _, f := range findings {
		key := lineKey(f.Pos)
		claimed := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic at %s: %s", f.Pos, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matched want %q", key, w.re)
			}
		}
	}
}

// parseWant extracts the quoted pattern from a `// want "..."` or
// `// want `+"`...`"+“ comment.
func parseWant(comment string) (string, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(text, "want ") {
		return "", false
	}
	text = strings.TrimSpace(strings.TrimPrefix(text, "want "))
	switch {
	case strings.HasPrefix(text, "`"):
		end := strings.LastIndex(text[1:], "`")
		if end < 0 {
			return "", false
		}
		return text[1 : 1+end], true
	case strings.HasPrefix(text, `"`):
		s, err := strconv.Unquote(text)
		if err != nil {
			return "", false
		}
		return s, true
	}
	return "", false
}

func lineKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}
