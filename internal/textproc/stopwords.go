package textproc

// Stopwords is a set of function words excluded from candidate queries.
// Queries made only of stopwords carry no retrieval signal, and leading /
// trailing stopwords in an n-gram rarely help (the paper enumerates raw
// n-grams but its corpus pipeline normalizes text; we expose the set so
// callers can choose).
type Stopwords struct {
	set map[string]struct{}
}

// defaultStopwords is a compact English function-word list adequate for the
// synthetic corpora; it is not meant to be exhaustive.
var defaultStopwords = []string{
	"a", "an", "the", "and", "or", "but", "if", "then", "else", "when",
	"at", "by", "for", "with", "about", "against", "between", "into",
	"through", "during", "before", "after", "above", "below", "to", "from",
	"up", "down", "in", "out", "on", "off", "over", "under", "again",
	"further", "once", "here", "there", "all", "any", "both", "each", "few",
	"more", "most", "other", "some", "such", "no", "nor", "not", "only",
	"own", "same", "so", "than", "too", "very", "can", "will", "just",
	"should", "now", "is", "are", "was", "were", "be", "been", "being",
	"have", "has", "had", "having", "do", "does", "did", "doing", "would",
	"could", "ought", "i", "you", "he", "she", "it", "we", "they", "them",
	"his", "her", "its", "our", "their", "this", "that", "these", "those",
	"am", "of", "as", "also", "him", "who", "whom", "which", "what",
	"while", "where", "why", "how", "because", "until", "him", "hers",
	"me", "my", "your", "us",
}

// NewStopwords returns the default English stopword set.
func NewStopwords() *Stopwords { return NewStopwordsFrom(defaultStopwords) }

// NewStopwordsFrom builds a stopword set from an explicit list.
func NewStopwordsFrom(words []string) *Stopwords {
	s := &Stopwords{set: make(map[string]struct{}, len(words))}
	for _, w := range words {
		s.set[w] = struct{}{}
	}
	return s
}

// Contains reports whether w is a stopword.
func (s *Stopwords) Contains(w string) bool {
	if s == nil {
		return false
	}
	_, ok := s.set[w]
	return ok
}

// Len reports the number of stopwords in the set.
func (s *Stopwords) Len() int { return len(s.set) }
