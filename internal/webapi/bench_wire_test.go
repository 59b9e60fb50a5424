package webapi

import (
	"context"
	"net/http/httptest"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// BenchmarkRemoteHarvestWire compares a full remote harvesting session —
// dial, then one search per fired query carrying its hits' pages
// (requests/op: 1 + the queries fired) — over the JSON surface
// vs the negotiated binary wire, through a bandwidth-modeled link (the
// paper's per-page transfer cost; loopback is otherwise free and would
// hide the bytes the wire codec saves). A fresh client is dialed every
// iteration so the page cache cannot absorb the transfers.
//
// The acceptance bar for the wire protocol is ≥2x session throughput for
// binary+gzip over JSON at this link speed; CI records both codecs (plus
// the delivered byte counts) in BENCH_wire.json.
func BenchmarkRemoteHarvestWire(b *testing.B) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		b.Fatal(err)
	}
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}
	aspect := synth.AspResearch
	y := func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) }
	cfg := core.DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	var domain []corpus.EntityID
	for i := 0; i < g.Corpus.NumEntities()/2; i++ {
		domain = append(domain, g.Corpus.Entities[i].ID)
	}
	dm, err := core.LearnDomain(cfg, aspect, g.Corpus, domain, y, rec)
	if err != nil {
		b.Fatal(err)
	}
	target := g.Corpus.Entities[g.Corpus.NumEntities()-1]

	// 32 KiB/s: slow enough that transfer dominates handler CPU, the
	// regime the binary wire is designed for.
	const linkBytesPerSec = 32 << 10

	for _, bc := range []struct {
		name  string
		codec Codec
	}{
		{"json", CodecJSON},
		{"binary", CodecAuto},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srvObj := NewServer(g.Corpus, engine)
			// The synthetic corpus's pages are small; compress every frame
			// rather than only those past the default 1 KiB threshold.
			srvObj.CompressMin = 1
			inj := &FaultInjector{Bandwidth: linkBytesPerSec, Next: srvObj.Handler()}
			srv := httptest.NewServer(inj)
			defer srv.Close()

			requests := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{Codec: bc.codec})
				if err != nil {
					b.Fatal(err)
				}
				if bc.codec == CodecAuto && !c.WireNegotiated() {
					b.Fatal("wire not negotiated")
				}
				sess := core.NewSession(cfg, c, target, aspect, y, dm, rec, 42)
				if fired := sess.Run(core.NewL2QBAL(), 3); len(fired) == 0 {
					b.Fatal("session fired no queries")
				}
				requests += c.Requests()
			}
			b.StopTimer()
			b.ReportMetric(float64(inj.BytesOut())/float64(b.N), "linkbytes/op")
			b.ReportMetric(float64(requests)/float64(b.N), "requests/op")
		})
	}
}
