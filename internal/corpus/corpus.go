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
	Text string
	// Tokens are ready-made tokens a page is built from: SetParas with a
	// nil tokenizer, or a page assembled as a struct literal. A page keeps
	// its paragraphs' tokens itself, so read them through Page.ParaTokens,
	// never here (l2qvet's paratokens analyzer holds library code to it).
	Tokens []textproc.Token
	// Aspect is the generator's ground-truth label; empty for filler.
	Aspect Aspect
}

// Page is one web page: an ordered list of paragraphs about one entity.
// A page is its text. Its tokens are derived state: a page built by
// SetParas with a tokenizer holds no tokens until they are first read
// (Tokens, ParaTokens, TermIDs, HasToken), tokenizes once then,
// and keeps them as one array, each paragraph's tokens a range of it. A
// pass over the whole corpus that reads each page once (index building,
// classifier counting) goes through Scan instead and leaves the page as it
// found it. Pages are safe to share across concurrent harvesting
// sessions (which never mutate Paras).
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

	// tokens is the page's token stream once it has one: built under
	// tokOnce on first read, or by SetParas from ready-made tokens. The
	// pointer lets a scan ask whether the page holds its tokens without
	// making it tokenize.
	tokOnce  sync.Once
	tokens   atomic.Pointer[pageTokens]
	setOnce  sync.Once
	tokenSet map[textproc.Token]struct{}
	// tok is the tokenizer the page's text is tokenized with; nil when the
	// tokens came ready-made or the page is a literal.
	tok *textproc.Tokenizer
	// termIDs memoizes the token stream as one vocabulary's term ids; a
	// page no session enumerates never computes it.
	termIDs atomic.Pointer[pageTermIDs]
}

// pageTokens is a page's token stream: one exactly-sized array, and where
// each paragraph's range of it ends.
type pageTokens struct {
	all  []textproc.Token
	ends []int32
}

// para returns paragraph i's range of the stream, capacity-capped so an
// append to it cannot reach paragraph i+1; nil when it has no tokens, as
// Tokenize answers for text without any.
func (t *pageTokens) para(i int) []textproc.Token {
	start := int32(0)
	if i > 0 {
		start = t.ends[i-1]
	}
	end := t.ends[i]
	if start == end {
		return nil
	}
	return t.all[start:end:end]
}

// pageTermIDs is a page's token stream under one vocabulary.
type pageTermIDs struct {
	v   *textproc.Vocabulary
	ids []textproc.TermID
}

// parasScratch is the pooled buffer a page's tokens are gathered in before
// their count is known.
type parasScratch struct {
	toks []textproc.Token
}

var parasScratchPool = sync.Pool{New: func() any { return new(parasScratch) }}

// SetParas makes paras the page's paragraphs. With a tokenizer the page
// keeps their text only: whatever Tokens held is dropped, and tok tokenizes
// each paragraph on the page's first read of its tokens. With a nil
// tokenizer the given Tokens are the page's: they are copied into one
// exactly-sized array now, and the paragraphs' own slices dropped. The page
// takes ownership of paras.
//
// Call it while the page is still private to its constructor, never on a
// page other goroutines can see: readers of Paras take no lock.
func (p *Page) SetParas(paras []Paragraph, tok *textproc.Tokenizer) {
	p.Paras = paras
	p.tok = tok
	if tok == nil {
		p.loadTokens()
	}
	for i := range paras {
		paras[i].Tokens = nil
	}
}

// loadTokens returns the page's token stream, building it on the first
// call.
func (p *Page) loadTokens() *pageTokens {
	if t := p.tokens.Load(); t != nil {
		return t
	}
	p.tokOnce.Do(func() { p.tokens.Store(p.buildTokens()) })
	return p.tokens.Load()
}

// buildTokens gathers the page's token stream: each paragraph's text under
// the page's tokenizer or, without one, its ready-made Tokens.
func (p *Page) buildTokens() *pageTokens {
	sc := parasScratchPool.Get().(*parasScratch)
	toks := sc.toks[:0]
	ends := make([]int32, len(p.Paras))
	for i := range p.Paras {
		if p.tok != nil {
			toks = p.tok.AppendTokens(toks, p.Paras[i].Text)
		} else {
			toks = append(toks, p.Paras[i].Tokens...)
		}
		ends[i] = int32(len(toks))
	}
	t := &pageTokens{all: make([]textproc.Token, len(toks)), ends: ends}
	copy(t.all, toks)
	clear(toks) // tokens are substrings of the page's text; the pool must not pin it
	sc.toks = toks
	parasScratchPool.Put(sc)
	return t
}

// Tokenizer is the tokenizer the page's text is tokenized with (SetParas'
// tok), nil when its tokens came ready-made or the page is a literal.
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

// Tokens returns the page's full token stream (paragraphs concatenated),
// tokenizing the page on the first read and keeping the result: one
// exactly-sized array that every paragraph's ParaTokens is a range of.
// Later calls allocate nothing. Safe for concurrent use; the returned
// slice is shared — callers must not mutate it.
func (p *Page) Tokens() []textproc.Token { return p.loadTokens().all }

// ParaTokens returns paragraph i's tokens: a capacity-capped range of
// Tokens (nil for a paragraph without tokens), so reading it tokenizes the
// page on the first read as Tokens does.
func (p *Page) ParaTokens(i int) []textproc.Token { return p.loadTokens().para(i) }

// ParaEnds returns where each paragraph's tokens end in Tokens, tokenizing
// the page on the first read as Tokens does. The slice is shared — callers
// must not mutate it.
func (p *Page) ParaEnds() []int32 { return p.loadTokens().ends }

// ScanParaTokens returns paragraph i's tokens for a pass that reads the
// page once and keeps nothing of it: the page's own range when it holds
// its tokens, otherwise the paragraph's text tokenized into (*buf)[:0] —
// *buf grows as needed and the page caches nothing, so a whole-corpus pass
// over untokenized pages leaves them untokenized. The result is valid
// until *buf is next used; callers must not mutate it.
func (p *Page) ScanParaTokens(i int, buf *[]textproc.Token) []textproc.Token {
	if t := p.tokens.Load(); t != nil {
		return t.para(i)
	}
	if p.tok == nil {
		return p.Paras[i].Tokens
	}
	*buf = p.tok.AppendTokens((*buf)[:0], p.Paras[i].Text)
	return *buf
}

// ParaVisitor is handed one paragraph's tokens by Scan: doc is the page's
// ordinal in the scanned slice and i the paragraph's index on the page.
// toks is valid only for the call; visitors must not mutate it.
type ParaVisitor func(doc int, p *Page, i int, toks []textproc.Token)

// Scan is the whole-corpus pass: it visits every paragraph of every page
// in order and hands its tokens to each visitor in turn. A paragraph is
// tokenized once for all of them (ScanParaTokens) and nothing is kept, so
// passes that run together — a server's index and its classifiers' counts
// — tokenize each page once between them and leave it untokenized.
func Scan(pages []*Page, visitors ...ParaVisitor) {
	var buf []textproc.Token
	for doc, p := range pages {
		for i := range p.Paras {
			toks := p.ScanParaTokens(i, &buf)
			for _, visit := range visitors {
				visit(doc, p, i, toks)
			}
		}
	}
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

// ComputeStats walks the corpus once and tallies the summary; it leaves
// untokenized pages untokenized (ScanParaTokens).
func (c *Corpus) ComputeStats() Stats {
	s := Stats{
		Domain:        c.Domain,
		Entities:      len(c.Entities),
		Pages:         len(c.Pages),
		ParasByAspect: make(map[Aspect]int),
	}
	var buf []textproc.Token
	for _, p := range c.Pages {
		s.Paragraphs += len(p.Paras)
		for i := range p.Paras {
			s.Tokens += len(p.ScanParaTokens(i, &buf))
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
