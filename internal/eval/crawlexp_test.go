package eval

import (
	"context"
	"testing"

	"l2q/internal/synth"
)

func TestCompareCrawler(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full evaluations")
	}
	env, err := NewEnv(TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	res, err := env.CompareCrawler(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Entities == 0 {
		t.Fatal("no contributing pairs")
	}
	t.Logf("L2QBAL F=%.3f, crawler F=%.3f over %d pairs (%s)",
		res.L2QF, res.CrawlerF, res.Entities, res.Sig)
	if res.L2QF <= res.CrawlerF {
		t.Errorf("query harvesting (%.3f) did not beat link crawling (%.3f)",
			res.L2QF, res.CrawlerF)
	}
	if res.Sig.Pairs != res.Entities {
		t.Errorf("significance pairs %d != entities %d", res.Sig.Pairs, res.Entities)
	}
}
