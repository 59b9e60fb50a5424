package synth_test

import (
	"strings"
	"testing"

	"l2q/internal/baselines"
	"l2q/internal/corpus"
	"l2q/internal/synth"
)

// TestManualQueriesInTheGrammar pins how many of the MQ baseline's curated
// queries (baselines.ManualQueries) occur word for word in their own
// aspect's sentence templates, placeholders not expanded: the generator
// writes those words onto every page of the aspect, so such a query reads
// the oracle that produced the corpus. A list or grammar edit that moves
// either count shows up here.
func TestManualQueriesInTheGrammar(t *testing.T) {
	for _, tc := range []struct {
		domain          corpus.Domain
		aspects         []corpus.Aspect
		verbatim, total int
	}{
		{synth.DomainResearchers, synth.ResearcherAspects, 31, 35},
		{synth.DomainCars, synth.CarAspects, 17, 35},
	} {
		verbatim, total := 0, 0
		var others []string
		for _, a := range tc.aspects {
			for _, q := range baselines.ManualQueries(tc.domain, a) {
				total++
				if inTemplates(string(q), synth.Grammars[tc.domain][a]) {
					verbatim++
				} else {
					others = append(others, string(a)+":"+string(q))
				}
			}
		}
		if verbatim != tc.verbatim || total != tc.total {
			t.Errorf("%s: %d of %d manual queries are template text, want %d of %d (not template text: %v)",
				tc.domain, verbatim, total, tc.verbatim, tc.total, others)
		}
	}
}

// inTemplates reports whether q occurs as whole words in one of templates.
func inTemplates(q string, templates []string) bool {
	for _, tmpl := range templates {
		if strings.Contains(" "+tmpl+" ", " "+q+" ") {
			return true
		}
	}
	return false
}
