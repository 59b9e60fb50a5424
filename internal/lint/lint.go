// Package lint is l2qvet's analyzer suite: repo-specific static checks
// that machine-enforce the conventions this codebase's performance and
// reproducibility guarantees rest on. Seven PRs of optimization left the
// repo with invariants that were documented (DESIGN.md "Allocation
// discipline", the store codec's determinism bar, the webapi error
// envelope) but enforced only by review; each analyzer here turns one of
// them into a compiler-adjacent check:
//
//   - poolput: every sync.Pool.Put of a locally-defined struct with
//     pointer-bearing fields must account for those fields at the put
//     site (assign, element-nil, or clear) so pooled scratch cannot
//     silently pin index postings or page text (PR 7).
//   - ctxbg: no context.Background() in internal/* library code except
//     at annotated sites — code threads the caller's context (PR 3).
//   - mapdeterminism: codec paths (internal/store, internal/webapi) may
//     not serialize in map-iteration order — collected keys must be
//     sorted, and nothing may feed a store.Enc from inside a map range
//     (the byte-identical artifact guarantee, PRs 4–6).
//   - appendtwin: an exported X alongside an AppendX/XAppend twin must
//     delegate to the twin; two implementations drift (PR 7).
//   - errenvelope: internal/webapi handlers fail through writeError's
//     unified retryable-error envelope, never http.Error or a hand-rolled
//     4xx/5xx (PR 6).
//   - paratokens: nothing outside internal/corpus reads
//     corpus.Paragraph.Tokens; a paragraph's tokens are read through its
//     page, which tokenizes once on first read.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the analyzers port mechanically if that
// module is ever vendored; this repo is dependency-free by policy, so
// loading and running are implemented on the standard library alone
// (go/parser + go/types over `go list -export` build-cache export data).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. The shape intentionally matches
// x/tools/go/analysis.Analyzer so a future migration is mechanical.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //l2qvet:ignore directives.
	Name string
	// Doc is the one-paragraph description printed by `l2qvet -list`.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Fset returns the file set all positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed (non-test) files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Path returns the package import path.
func (p *Pass) Path() string { return p.Pkg.Path }

// Types returns the type-checked package.
func (p *Pass) Types() *types.Package { return p.Pkg.Types }

// Info returns the type-checker's recorded use/def/type maps.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, position already resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// SuppressedBy holds the in-code justification when an
	// //l2qvet:ignore directive silenced this finding (such findings are
	// filtered out of RunAnalyzers' return; the field exists for tools
	// that want to audit suppressions).
	SuppressedBy string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full l2qvet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{PoolPut, CtxBG, MapDeterminism, AppendTwin, ErrEnvelope, ParaTokens}
}

// ByName resolves a comma-separated analyzer list ("" = the whole suite).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return Analyzers(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", n, strings.Join(analyzerNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

func analyzerNames() []string {
	var ns []string
	for _, a := range Analyzers() {
		ns = append(ns, a.Name)
	}
	return ns
}

// ignoreDirective is one parsed //l2qvet:ignore comment.
type ignoreDirective struct {
	pos      token.Position
	analyzer string // "" on a malformed directive
	reason   string
}

// IgnorePrefix is the in-code suppression marker. A finding is silenced
// by a comment on its own line or the line directly above:
//
//	//l2qvet:ignore <analyzer> <reason>
//
// The reason is mandatory: a suppression is a recorded decision, not an
// off switch. Malformed directives are themselves findings.
const IgnorePrefix = "l2qvet:ignore"

// parseIgnores extracts every suppression directive in a file, keyed by
// line. Malformed directives (no analyzer, or no reason) are returned
// separately so the runner can report them.
func parseIgnores(fset *token.FileSet, f *ast.File) (byLine map[int]map[string]string, malformed []ignoreDirective) {
	byLine = map[int]map[string]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, IgnorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, IgnorePrefix))
			pos := fset.Position(c.Pos())
			name, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			if name == "" || reason == "" {
				malformed = append(malformed, ignoreDirective{pos: pos})
				continue
			}
			if byLine[pos.Line] == nil {
				byLine[pos.Line] = map[string]string{}
			}
			byLine[pos.Line][name] = reason
		}
	}
	return byLine, malformed
}

// RunAnalyzers runs every analyzer over every package and returns the
// surviving findings sorted by position. Suppressed findings are dropped;
// malformed suppression directives come back as findings of the pseudo
// analyzer "l2qvet".
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		ignores := map[string]map[int]map[string]string{} // file -> line -> analyzer -> reason
		for _, f := range pkg.Files {
			byLine, malformed := parseIgnores(pkg.Fset, f)
			ignores[pkg.Fset.Position(f.Pos()).Filename] = byLine
			for _, m := range malformed {
				out = append(out, Diagnostic{
					Analyzer: "l2qvet",
					Pos:      m.pos,
					Message:  "malformed " + IgnorePrefix + " directive: want //" + IgnorePrefix + " <analyzer> <reason>",
				})
			}
		}
		suppressedBy := func(d Diagnostic) string {
			byLine := ignores[d.Pos.Filename]
			for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
				if reason, ok := byLine[line][d.Analyzer]; ok {
					return reason
				}
			}
			return ""
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				report: func(d Diagnostic) {
					if suppressedBy(d) == "" {
						out = append(out, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// pathIn reports whether the package import path names pkg (exactly, or
// as its last path element) — how the repo-scoped analyzers recognize
// their target packages both in the real module ("l2q/internal/store")
// and in testdata trees ("mapdet/store").
func pathIn(path string, names ...string) bool {
	for _, n := range names {
		if path == n || strings.HasSuffix(path, "/"+n) {
			return true
		}
	}
	return false
}

// inInternal reports whether the import path lies under an internal/
// tree — the scope of the library-code-only checks.
func inInternal(path string) bool {
	return path == "internal" || strings.HasPrefix(path, "internal/") ||
		strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}
