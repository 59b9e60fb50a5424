package store

import (
	"sort"

	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/textproc"
)

// encodeEntities writes the ENTS section: one record per entity, attrs
// sorted for byte-deterministic output.
func encodeEntities(e *Enc, c *corpus.Corpus) {
	e.Uvarint(uint64(len(c.Entities)))
	for _, ent := range c.Entities {
		e.Varint(int64(ent.ID))
		e.Str(string(ent.Domain))
		e.Str(ent.Name)
		e.Str(ent.SeedQuery)
		keys := make([]string, 0, len(ent.Attrs))
		for k := range ent.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.Str(k)
			e.Str(ent.Attrs[k])
		}
	}
}

func decodeEntities(d *Dec) []*corpus.Entity {
	n := d.Count("entities")
	out := make([]*corpus.Entity, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		ent := &corpus.Entity{
			ID:        corpus.EntityID(d.Varint()),
			Domain:    corpus.Domain(d.Str()),
			Name:      d.Str(),
			SeedQuery: d.Str(),
		}
		nAttrs := d.Count("entity attrs")
		if nAttrs > 0 {
			ent.Attrs = make(map[string]string, nAttrs)
			for j := 0; j < nAttrs && d.Err() == nil; j++ {
				k := d.Str()
				ent.Attrs[k] = d.Str()
			}
		}
		out = append(out, ent)
	}
	return out
}

// encodePages writes the PAGE section. Paragraph tokens are dictionary
// IDs; aspects are interned into a small per-section table; links are
// written as deltas from the page's own ID (links cluster near their
// source in generated webs).
func encodePages(e *Enc, c *corpus.Corpus, dict *dictionary) {
	// Aspect table for this section.
	aspectID := map[corpus.Aspect]uint64{}
	var aspects []corpus.Aspect
	for _, p := range c.Pages {
		for i := range p.Paras {
			a := p.Paras[i].Aspect
			if _, ok := aspectID[a]; !ok {
				aspectID[a] = uint64(len(aspects))
				aspects = append(aspects, a)
			}
		}
	}
	e.Uvarint(uint64(len(aspects)))
	for _, a := range aspects {
		e.Str(string(a))
	}

	e.Uvarint(uint64(len(c.Pages)))
	var buf []textproc.Token
	for _, p := range c.Pages {
		e.Varint(int64(p.ID))
		e.Varint(int64(p.Entity))
		e.Str(p.URL)
		e.Str(p.Title)
		e.Uvarint(uint64(len(p.Paras)))
		for i := range p.Paras {
			para := &p.Paras[i]
			e.Uvarint(aspectID[para.Aspect])
			e.Str(para.Text)
			toks := p.ScanParaTokens(i, &buf)
			e.Uvarint(uint64(len(toks)))
			for _, t := range toks {
				e.Uvarint(dict.id(t))
			}
		}
		e.Uvarint(uint64(len(p.Links)))
		for _, l := range p.Links {
			e.Varint(int64(l) - int64(p.ID))
		}
	}
}

// decodePages reads the PAGE section. keep, when non-nil, selects the pages
// to materialize: an unkept page is walked and validated field by field
// like any other — damage anywhere in the section fails the load — but its
// strings and tokens are never allocated.
func decodePages(d *Dec, dict *dictionary, keep func(corpus.PageID) bool) []*corpus.Page {
	nAspects := d.Count("aspects")
	aspects := make([]corpus.Aspect, 0, nAspects)
	for i := 0; i < nAspects && d.Err() == nil; i++ {
		aspects = append(aspects, corpus.Aspect(d.Str()))
	}

	nPages := d.Count("pages")
	var out []*corpus.Page
	if keep == nil {
		out = make([]*corpus.Page, 0, nPages)
	}
	var toks []textproc.Token // one page's tokens; SetParas copies them out
	for i := 0; i < nPages && d.Err() == nil; i++ {
		id := corpus.PageID(d.Varint())
		kept := keep == nil || keep(id)
		entity := corpus.EntityID(d.Varint())
		var p *corpus.Page
		if kept {
			p = &corpus.Page{ID: id, Entity: entity, URL: d.Str(), Title: d.Str()}
		} else {
			d.Bytes() // same framing as Str, nothing allocated
			d.Bytes()
		}
		nParas := d.Count("paragraphs")
		var paras []corpus.Paragraph
		if kept {
			paras = make([]corpus.Paragraph, 0, nParas)
		}
		toks = toks[:0]
		for j := 0; j < nParas && d.Err() == nil; j++ {
			aid := d.Uvarint()
			if aid >= uint64(len(aspects)) {
				d.Fail("aspect id")
				break
			}
			para := corpus.Paragraph{Aspect: aspects[aid]}
			if kept {
				para.Text = d.Str()
			} else {
				d.Bytes()
			}
			nToks := d.Count("tokens")
			start := len(toks)
			for k := 0; k < nToks && d.Err() == nil; k++ {
				t, ok := dict.term(d.Uvarint())
				if !ok {
					d.Fail("token id")
					break
				}
				if kept {
					toks = append(toks, t)
				}
			}
			if kept {
				para.Tokens = toks[start:]
				paras = append(paras, para)
			}
		}
		nLinks := d.Count("links")
		for j := 0; j < nLinks && d.Err() == nil; j++ {
			l := corpus.PageID(int64(id) + d.Varint())
			if kept {
				p.Links = append(p.Links, l)
			}
		}
		if kept {
			p.SetParas(paras, nil)
			out = append(out, p)
		}
	}
	return out
}

// encodeIndex writes the INDX section: per term (dictionary ID), the
// posting list with document-ordinal deltas and term frequencies.
func encodeIndex(e *Enc, idx *search.Index, dict *dictionary) {
	e.Uvarint(uint64(idx.NumTerms()))
	idx.DumpPostings(func(term textproc.Token, posts []search.RawPosting) {
		e.Uvarint(dict.id(term))
		e.Uvarint(uint64(len(posts)))
		prev := int32(0)
		for _, p := range posts {
			e.Uvarint(uint64(p.Doc - prev))
			e.Uvarint(uint64(p.TF))
			prev = p.Doc
		}
	})
}

func decodeIndex(d *Dec, dict *dictionary) map[textproc.Token][]search.RawPosting {
	nTerms := d.Count("index terms")
	out := make(map[textproc.Token][]search.RawPosting, nTerms)
	for i := 0; i < nTerms && d.Err() == nil; i++ {
		term, ok := dict.term(d.Uvarint())
		if !ok {
			d.Fail("index term id")
			return out
		}
		nPosts := d.Count("postings")
		posts := make([]search.RawPosting, 0, nPosts)
		doc := int32(0)
		for j := 0; j < nPosts && d.Err() == nil; j++ {
			doc += int32(d.Uvarint())
			posts = append(posts, search.RawPosting{Doc: doc, TF: int32(d.Uvarint())})
		}
		out[term] = posts
	}
	return out
}
