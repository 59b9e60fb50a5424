package synth

import "l2q/internal/corpus"

// Grammars are the sentence templates of each domain, by aspect, as the
// generator writes them (placeholders not expanded).
var Grammars = map[corpus.Domain]map[corpus.Aspect][]string{
	DomainResearchers: researcherGrammar,
	DomainCars:        carGrammar,
}
