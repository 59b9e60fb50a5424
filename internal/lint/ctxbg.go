package lint

import (
	"go/ast"
	"go/types"
)

// CtxBG bans context.Background() in internal/* library code. Since PR 3
// the harvest stack threads cancellation end to end — a Background() that
// sneaks into library code detaches whatever runs under it from the
// caller's deadline and from graceful shutdown (the exact bug class the
// ~100ms-vs-30s pipeline cancellation fix removed). The one sanctioned
// exception — a lifetime context owned by a server object — carries an
// //l2qvet:ignore ctxbg <reason> annotation at the call site, which is
// the whole point: a detached context is a recorded decision, not a
// default.
var CtxBG = &Analyzer{
	Name: "ctxbg",
	Doc: "no context.Background() in internal/* library code: thread the caller's ctx, " +
		"or annotate a sanctioned site with //l2qvet:ignore ctxbg <reason>",
	Run: runCtxBG,
}

func runCtxBG(pass *Pass) error {
	if !inInternal(pass.Path()) {
		return nil
	}
	info := pass.Info()
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.FullName() != "context.Background" {
				return true
			}
			pass.Reportf(call.Pos(), "context.Background() in library code: thread the caller's context instead")
			return true
		})
	}
	return nil
}
