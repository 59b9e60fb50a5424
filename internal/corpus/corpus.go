// Package corpus defines the data model shared by every layer of the
// reproduction: entities, pages, paragraphs, aspects, and the Corpus
// container that holds the pre-collected "web" the experiments run on.
//
// The paper collects ~50 pages per entity from the live Web in advance and
// retrieves only from that fixed corpus (§VI-A "Corpora"); Corpus is that
// fixed collection. Pages carry paragraph-level aspect labels because the
// paper evaluates relevance at paragraph granularity (§VI-A "Entity
// aspects") and the aspect classifiers are paragraph classifiers.
package corpus

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"l2q/internal/textproc"
)

// Aspect names a target facet of an entity, e.g. "RESEARCH" or "SAFETY".
// The empty aspect is reserved for unlabeled / noise paragraphs.
type Aspect string

// Domain names a kind of entity: "researchers" or "cars" in the paper, but
// the system is domain-agnostic and callers can define their own.
type Domain string

// EntityID uniquely identifies an entity within a corpus.
type EntityID int

// PageID uniquely identifies a page within a corpus.
type PageID int

// Paragraph is the retrieval-granularity text unit: a run of sentences with
// a single dominant aspect label assigned by the generator (the analogue of
// the paper's jsoup paragraph segmentation + CRF labels).
type Paragraph struct {
	Text   string
	Tokens []textproc.Token
	// Aspect is the generator's ground-truth label; empty for filler.
	Aspect Aspect
}

// Page is one web page: an ordered list of paragraphs about one entity.
// A page built through SetParas — every constructor in this repository —
// holds its tokens once: the paragraphs' Tokens are consecutive ranges of
// the array Tokens returns. A page assembled as a struct literal (tests)
// gets its token stream lazily under sync.Once instead. Either way pages
// are safe to share across concurrent harvesting sessions (which never
// mutate Paras).
type Page struct {
	ID     PageID
	Entity EntityID
	URL    string
	Title  string
	Paras  []Paragraph
	// Links are outgoing hyperlinks to other pages in the corpus. The
	// query-driven L2Q methods never follow them; they exist so the
	// link-based focused-crawler baseline (internal/crawler) has a web
	// graph to walk, and so the HTML rendering is a faithful page.
	Links []PageID

	// tokens is the page's token stream: the one array SetParas sliced the
	// paragraphs out of, or — on a literal-built page — the concatenation
	// Tokens caches under tokOnce, which exists for that fallback alone.
	tokOnce  sync.Once
	tokens   []textproc.Token
	setOnce  sync.Once
	tokenSet map[textproc.Token]struct{}
	// ngrams memoizes the page's exclusion-free n-gram enumeration: domain
	// learning and the HR baseline share one instead of re-sliding the
	// window for every pass and aspect.
	ngrams atomic.Pointer[pageNGrams]
	// tok is the tokenizer SetParas tokenized the paragraphs with; nil when
	// the tokens came ready-made.
	tok *textproc.Tokenizer
	// termIDs memoizes the token stream as one vocabulary's term ids; a
	// page no session enumerates never computes it.
	termIDs atomic.Pointer[pageTermIDs]
}

// pageTermIDs is a page's token stream under one vocabulary.
type pageTermIDs struct {
	v   *textproc.Vocabulary
	ids []textproc.TermID
}

// pageNGrams is a page's n-gram enumeration under one MaxLen and stopword
// list.
type pageNGrams struct {
	maxLen int
	sw     *textproc.Stopwords
	grams  []string
}

// parasScratch is the pooled buffer SetParas gathers a page's tokens in
// before their count is known.
type parasScratch struct {
	toks []textproc.Token
}

var parasScratchPool = sync.Pool{New: func() any { return new(parasScratch) }}

// SetParas makes paras the page's paragraphs over one exactly-sized token
// array: paragraph i's Tokens becomes a capacity-capped range of it (an
// append to one paragraph cannot reach its neighbour), the ranges are
// consecutive, and Tokens returns the array itself. With a tokenizer, a
// paragraph's tokens are tok's tokens of its Text and whatever Tokens held
// is ignored; with a nil tokenizer the given Tokens are copied. The page
// takes ownership of paras.
//
// Call it while the page is still private to its constructor, never on a
// page other goroutines can see: readers of Paras take no lock.
func (p *Page) SetParas(paras []Paragraph, tok *textproc.Tokenizer) {
	sc := parasScratchPool.Get().(*parasScratch)
	toks := sc.toks[:0]
	for i := range paras {
		start := len(toks)
		if tok != nil {
			toks = tok.AppendTokens(toks, paras[i].Text)
		} else {
			toks = append(toks, paras[i].Tokens...)
		}
		paras[i].Tokens = toks[start:] // its length is all that is read below
	}
	all := make([]textproc.Token, len(toks))
	copy(all, toks)
	off := 0
	for i := range paras {
		end := off + len(paras[i].Tokens)
		if end == off {
			paras[i].Tokens = nil // as Tokenize answers for text without tokens
		} else {
			paras[i].Tokens = all[off:end:end]
		}
		off = end
	}
	clear(toks) // tokens are substrings of the page's text; the pool must not pin it
	sc.toks = toks
	parasScratchPool.Put(sc)

	p.Paras = paras
	p.tokens = all
	p.tok = tok
	p.tokOnce.Do(func() {}) // Tokens has nothing left to build
}

// Tokenizer is the tokenizer that produced the page's tokens (SetParas'
// tok), nil when they came ready-made or the page is a literal.
func (p *Page) Tokenizer() *textproc.Tokenizer { return p.tok }

// TermIDs returns the page's token stream as v's term ids, computed on the
// first call and kept for as long as v is the vocabulary asked for (a
// process normally has one; asking for another recomputes and replaces
// it). Safe for concurrent use; the returned slice is shared — callers
// must not mutate it.
func (p *Page) TermIDs(v *textproc.Vocabulary) []textproc.TermID {
	if t := p.termIDs.Load(); t != nil && t.v == v {
		return t.ids
	}
	toks := p.Tokens()
	t := &pageTermIDs{v: v, ids: v.AppendIDs(make([]textproc.TermID, 0, len(toks)), toks)}
	p.termIDs.Store(t)
	return t.ids
}

// Tokens returns the page's full token stream (paragraphs concatenated).
// On a page built by SetParas that is the array the paragraphs alias, and
// the call allocates nothing; on a literal-built page the concatenation is
// computed and cached on first use.
func (p *Page) Tokens() []textproc.Token {
	p.tokOnce.Do(func() {
		n := 0
		for i := range p.Paras {
			n += len(p.Paras[i].Tokens)
		}
		p.tokens = make([]textproc.Token, 0, n)
		for i := range p.Paras {
			p.tokens = append(p.tokens, p.Paras[i].Tokens...)
		}
	})
	return p.tokens
}

// NGrams returns the page's distinct n-grams of up to maxLen tokens under
// the stopword list sw, in first-appearance order (textproc.NGrams over
// Tokens, nothing excluded), computed on the first call and kept for as
// long as maxLen and sw are the ones asked for (a process normally asks
// under one; asking under another recomputes and replaces it). Safe for
// concurrent use; the returned slice is shared — callers must not mutate
// it.
func (p *Page) NGrams(maxLen int, sw *textproc.Stopwords) []string {
	if g := p.ngrams.Load(); g != nil && g.maxLen == maxLen && g.sw == sw {
		return g.grams
	}
	g := &pageNGrams{maxLen: maxLen, sw: sw,
		grams: textproc.NGrams(p.Tokens(), textproc.NGramConfig{MaxLen: maxLen, Stopwords: sw})}
	p.ngrams.Store(g)
	return g.grams
}

// HasToken reports whether the page contains the token anywhere; the set is
// built lazily and cached.
func (p *Page) HasToken(tok textproc.Token) bool {
	p.setOnce.Do(func() {
		toks := p.Tokens()
		p.tokenSet = make(map[textproc.Token]struct{}, len(toks))
		for _, t := range toks {
			p.tokenSet[t] = struct{}{}
		}
	})
	_, ok := p.tokenSet[tok]
	return ok
}

// ContainsQuery reports whether the page contains the query: every query
// token must appear in the page (conjunctive containment). This is the
// edge predicate for reinforcement graphs ("page p can be retrieved by
// query q", §III).
func (p *Page) ContainsQuery(queryTokens []textproc.Token) bool {
	for _, t := range queryTokens {
		if !p.HasToken(t) {
			return false
		}
	}
	return len(queryTokens) > 0
}

// AspectFraction returns the fraction of paragraphs labeled with aspect a.
func (p *Page) AspectFraction(a Aspect) float64 {
	if len(p.Paras) == 0 {
		return 0
	}
	n := 0
	for i := range p.Paras {
		if p.Paras[i].Aspect == a {
			n++
		}
	}
	return float64(n) / float64(len(p.Paras))
}

// Entity is one real-world object being harvested: a researcher or a car
// model, identified by a seed query (name + disambiguator, §I "Input").
type Entity struct {
	ID     EntityID
	Domain Domain
	Name   string
	// SeedQuery uniquely identifies the entity, e.g. "marc snir uiuc".
	// It is both the initial query and an implicit conjunct appended to
	// every subsequent query.
	SeedQuery string
	// Attrs carries generator metadata (topics, institute, make, ...);
	// the harvesting algorithms never look at it — only tests and the
	// ideal-solution oracle may.
	Attrs map[string]string
}

// SeedTokens returns the tokenized seed query.
func (e *Entity) SeedTokens() []textproc.Token {
	return textproc.SplitQuery(e.SeedQuery)
}

// Corpus is the fixed page collection for one domain.
type Corpus struct {
	Domain   Domain
	Entities []*Entity
	Pages    []*Page

	byEntity map[EntityID][]*Page
	entByID  map[EntityID]*Entity
}

// New creates an empty corpus for a domain.
func New(domain Domain) *Corpus {
	return &Corpus{
		Domain:   domain,
		byEntity: make(map[EntityID][]*Page),
		entByID:  make(map[EntityID]*Entity),
	}
}

// AddEntity registers an entity; its ID must be unique in the corpus.
func (c *Corpus) AddEntity(e *Entity) error {
	if _, dup := c.entByID[e.ID]; dup {
		return fmt.Errorf("corpus: duplicate entity id %d", e.ID)
	}
	c.Entities = append(c.Entities, e)
	c.entByID[e.ID] = e
	return nil
}

// AddPage registers a page; its entity must already exist.
func (c *Corpus) AddPage(p *Page) error {
	if _, ok := c.entByID[p.Entity]; !ok {
		return fmt.Errorf("corpus: page %d references unknown entity %d", p.ID, p.Entity)
	}
	c.Pages = append(c.Pages, p)
	c.byEntity[p.Entity] = append(c.byEntity[p.Entity], p)
	return nil
}

// Entity returns the entity with the given ID, or nil.
func (c *Corpus) Entity(id EntityID) *Entity { return c.entByID[id] }

// PagesOf returns the pages of one entity (shared slice; do not mutate).
func (c *Corpus) PagesOf(id EntityID) []*Page { return c.byEntity[id] }

// NumEntities returns the number of entities.
func (c *Corpus) NumEntities() int { return len(c.Entities) }

// NumPages returns the number of pages.
func (c *Corpus) NumPages() int { return len(c.Pages) }

// Subset returns a shallow corpus view containing only the given entities
// and their pages, preserving order. Unknown IDs are ignored.
func (c *Corpus) Subset(ids []EntityID) *Corpus {
	sub := New(c.Domain)
	want := make(map[EntityID]struct{}, len(ids))
	for _, id := range ids {
		want[id] = struct{}{}
	}
	for _, e := range c.Entities {
		if _, ok := want[e.ID]; ok {
			_ = sub.AddEntity(e)
		}
	}
	for _, p := range c.Pages {
		if _, ok := want[p.Entity]; ok {
			_ = sub.AddPage(p)
		}
	}
	return sub
}

// Stats summarizes a corpus for logs and the Fig. 9 frequency column.
type Stats struct {
	Domain        Domain
	Entities      int
	Pages         int
	Paragraphs    int
	Tokens        int
	ParasByAspect map[Aspect]int
}

// ComputeStats walks the corpus once and tallies the summary.
func (c *Corpus) ComputeStats() Stats {
	s := Stats{
		Domain:        c.Domain,
		Entities:      len(c.Entities),
		Pages:         len(c.Pages),
		ParasByAspect: make(map[Aspect]int),
	}
	for _, p := range c.Pages {
		s.Paragraphs += len(p.Paras)
		for i := range p.Paras {
			s.Tokens += len(p.Paras[i].Tokens)
			if a := p.Paras[i].Aspect; a != "" {
				s.ParasByAspect[a]++
			}
		}
	}
	return s
}

// Aspects returns the sorted list of aspects appearing in the corpus.
func (c *Corpus) Aspects() []Aspect {
	set := make(map[Aspect]struct{})
	for _, p := range c.Pages {
		for i := range p.Paras {
			if a := p.Paras[i].Aspect; a != "" {
				set[a] = struct{}{}
			}
		}
	}
	out := make([]Aspect, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
