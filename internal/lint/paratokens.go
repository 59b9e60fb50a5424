package lint

import (
	"go/ast"
	"go/types"
)

// ParaTokens keeps every read of a paragraph's tokens going through its
// page. A page built from text tokenizes on its first read, once, under the
// page's own sync.Once, and keeps the result itself: corpus.Paragraph's
// Tokens field holds only the ready-made tokens a page is built from, and
// is nil on every page that tokenizes lazily. A reader that takes the
// field instead of Page.ParaTokens (or ScanParaTokens, for a whole-corpus
// pass) sees no tokens on such a page, and bypasses the once the race
// detector would otherwise vouch for. Constructing a paragraph with a
// composite literal stays allowed, and so does assigning the field; inside
// internal/corpus, which owns the layout, anything goes.
var ParaTokens = &Analyzer{
	Name: "paratokens",
	Doc: "read a paragraph's tokens through its page (Page.ParaTokens, Page.ScanParaTokens), " +
		"never corpus.Paragraph.Tokens outside internal/corpus; composite literals may set it",
	Run: runParaTokens,
}

func runParaTokens(pass *Pass) error {
	if pathIn(pass.Path(), "corpus") {
		return nil
	}
	info := pass.Info()
	for _, f := range pass.Files() {
		// Selectors that are the whole left side of an assignment are
		// writes, not reads.
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
			case *ast.SelectorExpr:
				if !written[n] && isParagraphTokens(info, n) {
					pass.Reportf(n.Sel.Pos(), "corpus.Paragraph.Tokens read outside internal/corpus: "+
						"a page built from text keeps its tokens itself; use Page.ParaTokens or Page.ScanParaTokens")
				}
			}
			return true
		})
	}
	return nil
}

// isParagraphTokens reports whether sel selects the Tokens field of a
// corpus.Paragraph (through a pointer or not).
func isParagraphTokens(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal || s.Obj().Name() != "Tokens" {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Paragraph" || named.Obj().Pkg() == nil {
		return false
	}
	return pathIn(named.Obj().Pkg().Path(), "corpus")
}
