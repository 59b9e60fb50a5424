package lint

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// backquoted extracts the expectation regexes from a `// want` comment —
// the analysistest convention, backquote-delimited so the patterns can
// hold quotes and escapes verbatim.
var backquoted = regexp.MustCompile("`([^`]*)`")

// testAnalyzer runs one analyzer over one testdata package and holds its
// findings to the package's inline `// want` expectations: every finding
// must match a want on its line, and every want must be consumed. Findings
// silenced by //l2qvet:ignore directives never reach the comparison, so a
// suppressed fixture is simply a line with no want.
func testAnalyzer(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	pkg, err := LoadTestdata(".", "testdata/src", path)
	if err != nil {
		t.Fatalf("loading testdata package %s: %v", path, err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s over %s: %v", a.Name, path, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "want ")
				if i < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, m := range backquoted.FindAllStringSubmatch(c.Text[i:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		got := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(got) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding at %s: %s", d.Pos, got)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected a finding matching %q, got none", k.file, k.line, re)
		}
	}
}

func TestPoolPut(t *testing.T)    { testAnalyzer(t, PoolPut, "poolput") }
func TestCtxBG(t *testing.T)      { testAnalyzer(t, CtxBG, "internal/ctxbg") }
func TestAppendTwin(t *testing.T) { testAnalyzer(t, AppendTwin, "appendtwin") }

func TestMapDeterminism(t *testing.T) { testAnalyzer(t, MapDeterminism, "mapdet/store") }

// TestCtxBGScope and TestMapDeterminismScope hold the path scoping: the
// same shapes that fire inside internal/* or the codec paths are ignored
// outside them.
func TestCtxBGScope(t *testing.T)          { testAnalyzer(t, CtxBG, "ctxbgout") }
func TestMapDeterminismScope(t *testing.T) { testAnalyzer(t, MapDeterminism, "mapdet/other") }

func TestErrEnvelope(t *testing.T) { testAnalyzer(t, ErrEnvelope, "errenvelope/webapi") }

// TestParaTokens holds the rule and its scope: reads of the field outside
// the corpus package are findings, construction and the corpus package's
// own reads are not.
func TestParaTokens(t *testing.T) {
	testAnalyzer(t, ParaTokens, "paratokens/reader")
	testAnalyzer(t, ParaTokens, "paratokens/corpus")
}

// TestMalformedIgnore: a directive without an analyzer and reason is
// itself a finding of the pseudo-analyzer "l2qvet".
func TestMalformedIgnore(t *testing.T) {
	pkg, err := LoadTestdata(".", "testdata/src", "ignoredir")
	if err != nil {
		t.Fatalf("loading testdata package ignoredir: %v", err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, Analyzers())
	if err != nil {
		t.Fatalf("running suite over ignoredir: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want exactly the malformed-directive finding: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "l2qvet" || !strings.Contains(diags[0].Message, "malformed") {
		t.Fatalf("got %v, want a malformed-directive finding from the l2qvet pseudo-analyzer", diags[0])
	}
}

// TestByName covers the subset selector and its error path.
func TestByName(t *testing.T) {
	subset, err := ByName("poolput, ctxbg")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if len(subset) != 2 || subset[0] != PoolPut || subset[1] != CtxBG {
		t.Fatalf("ByName returned %v, want [poolput ctxbg]", subset)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) succeeded, want an error naming the suite")
	}
}
