package html

import (
	"testing"

	"l2q/internal/synth"
	"l2q/internal/textproc"
)

var benchTokens []textproc.Token

// BenchmarkParsePageAllocs is a harvesting client's per-downloaded-page
// cost: one rendered researchers page through ParsePage, then the token
// stream every consumer (n-gram enumeration, the session's bitsets) asks
// for. scripts/alloc_gate.sh pins its allocs/op.
func BenchmarkParsePageAllocs(b *testing.B) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		b.Fatal(err)
	}
	doc := RenderPage(g.Corpus.Pages[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTokens = ParsePage(doc, -1, g.Tokenizer).Tokens()
	}
}

// BenchmarkRenderPageAllocs is a server's per-served-page cost: one
// researchers page rendered by AppendPage into a reused buffer.
// scripts/alloc_gate.sh pins it at 0 allocs/op.
func BenchmarkRenderPageAllocs(b *testing.B) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		b.Fatal(err)
	}
	p := g.Corpus.Pages[0]
	buf := AppendPage(nil, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendPage(buf[:0], p)
	}
}
