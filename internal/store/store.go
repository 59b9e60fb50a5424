package store

import (
	"fmt"
	"io"

	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/textproc"
)

// magic identifies the file format and its major version.
const magic = "L2QSTOR1"

const (
	secMeta     = "META"
	secDict     = "DICT"
	secEntities = "ENTS"
	secPages    = "PAGE"
	secIndex    = "INDX"
)

// Bundle is what a store file contains: the corpus, the tokenizer that
// round-trips its phrase tokens, and — if the file was written with an
// index — the restored inverted index over c.Pages.
type Bundle struct {
	Corpus *corpus.Corpus
	// Tokenizer merges the phrases the corpus builder merged: a multi-word
	// term in the file's dictionary (internal space) can only have come
	// from a phrase lexicon, so the dictionary's multi-word terms are that
	// lexicon. Queries tokenized with it match the stored page tokens.
	Tokenizer *textproc.Tokenizer
	// Index is nil when the file carries no INDX section or the load was
	// given a page predicate (the section indexes the whole corpus);
	// callers can rebuild with search.BuildIndex(c.Pages).
	Index *search.Index
}

// Save writes the corpus (and optionally its index) to w. idx may be nil.
// The index must have been built over c.Pages in corpus order.
func Save(w io.Writer, c *corpus.Corpus, idx *search.Index) error {
	if c == nil {
		return fmt.Errorf("store: nil corpus")
	}
	if idx != nil && idx.NumDocs() != c.NumPages() {
		return fmt.Errorf("store: index covers %d docs, corpus has %d pages",
			idx.NumDocs(), c.NumPages())
	}
	// The dictionary holds every term the file writes: the pages' tokens
	// and, should a restored index name a term no page holds, that term.
	dict := buildDictionary(func(emit func(textproc.Token)) {
		var buf []textproc.Token
		for _, p := range c.Pages {
			for i := range p.Paras {
				for _, t := range p.ScanParaTokens(i, &buf) {
					emit(t)
				}
			}
		}
		if idx != nil {
			idx.DumpPostings(func(t textproc.Token, _ []search.RawPosting) { emit(t) })
		}
	})
	sections := []section{
		{secMeta, func(e *Enc) { encodeMeta(e, c) }},
		{secDict, dict.encode},
		{secEntities, func(e *Enc) { encodeEntities(e, c) }},
		{secPages, func(e *Enc) { encodePages(e, c, dict) }},
	}
	if idx != nil {
		sections = append(sections, section{secIndex, func(e *Enc) { encodeIndex(e, idx, dict) }})
	}
	return writeContainer(w, magic, sections)
}

// Load reads a store file. Unknown sections are skipped; checksum or
// structural damage yields an error naming the section. keep, when
// non-nil, selects the pages the corpus retains (a cluster node keeps the
// partitions it serves): every page is still validated, only kept ones are
// materialized, the entity table stays complete, and the persisted
// whole-corpus index is not restored.
func Load(r io.Reader, keep func(corpus.PageID) bool) (*Bundle, error) {
	var (
		meta     *metaInfo
		dict     *dictionary
		ents     []*corpus.Entity
		pages    []*corpus.Page
		postings map[textproc.Token][]search.RawPosting
	)
	decoders := map[string]func(*Dec) error{
		secMeta:     func(d *Dec) error { meta = decodeMeta(d); return nil },
		secDict:     func(d *Dec) error { dict = decodeDictionary(d); return nil },
		secEntities: func(d *Dec) error { ents = decodeEntities(d); return nil },
		secPages: func(d *Dec) error {
			if dict == nil {
				return fmt.Errorf("store: PAGE section before DICT")
			}
			pages = decodePages(d, dict, keep)
			return nil
		},
	}
	// Under keep the index covers pages this load does not hold: its
	// section is checksummed like any other, then skipped.
	if keep == nil {
		decoders[secIndex] = func(d *Dec) error {
			if dict == nil {
				return fmt.Errorf("store: INDX section before DICT")
			}
			postings = decodeIndex(d, dict)
			return nil
		}
	}
	if err := readContainer(r, magic, decoders); err != nil {
		return nil, err
	}
	if meta == nil || dict == nil {
		return nil, fmt.Errorf("store: missing META or DICT section")
	}

	c := corpus.New(meta.domain)
	for _, e := range ents {
		if err := c.AddEntity(e); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	for _, p := range pages {
		if err := c.AddPage(p); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	b := &Bundle{Corpus: c, Tokenizer: dict.tokenizer()}
	if postings != nil {
		idx, err := search.RestoreIndex(c.Pages, postings)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		b.Index = idx
	}
	return b, nil
}

// SaveFile writes the bundle to path durably (see replaceFile).
func SaveFile(path string, c *corpus.Corpus, idx *search.Index) error {
	return replaceFile(path, func(w io.Writer) error { return Save(w, c, idx) })
}

// LoadFile reads a bundle from path (see Load for keep).
func LoadFile(path string, keep func(corpus.PageID) bool) (*Bundle, error) {
	return loadFile(path, func(r io.Reader) (*Bundle, error) { return Load(r, keep) })
}

// metaInfo is the META section: format metadata.
type metaInfo struct {
	domain corpus.Domain
}

func encodeMeta(e *Enc, c *corpus.Corpus) {
	e.Str(string(c.Domain))
	e.Uvarint(uint64(c.NumEntities()))
	e.Uvarint(uint64(c.NumPages()))
}

func decodeMeta(d *Dec) *metaInfo {
	m := &metaInfo{domain: corpus.Domain(d.Str())}
	d.Uvarint() // entity count (informational)
	d.Uvarint() // page count (informational)
	return m
}
