package corpus

// HoldsTokens reports whether the page keeps a token stream: read once
// through Tokens or ParaTokens, or built from ready-made tokens.
func (p *Page) HoldsTokens() bool { return p.tokens.Load() != nil }
