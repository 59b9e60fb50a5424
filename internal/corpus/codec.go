package corpus

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"l2q/internal/textproc"
)

// wireCorpus is the schema of the JSON inspection dump (WriteJSON); it
// keeps the dump decoupled from the in-memory struct (which carries
// caches). The dump is write-only: the artefact a program loads a corpus
// from is the L2QSTOR1 store file (internal/store, `l2qstore build`).
type wireCorpus struct {
	Domain   Domain
	Entities []wireEntity
	Pages    []wirePage
}

type wireEntity struct {
	ID        EntityID
	Domain    Domain
	Name      string
	SeedQuery string
	Attrs     map[string]string
}

type wirePage struct {
	ID     PageID
	Entity EntityID
	URL    string
	Title  string
	Paras  []wirePara
	Links  []PageID
}

type wirePara struct {
	Text   string
	Tokens []textproc.Token
	Aspect Aspect
}

func (c *Corpus) toWire() wireCorpus {
	w := wireCorpus{Domain: c.Domain}
	for _, e := range c.Entities {
		w.Entities = append(w.Entities, wireEntity{
			ID: e.ID, Domain: e.Domain, Name: e.Name,
			SeedQuery: e.SeedQuery, Attrs: e.Attrs,
		})
	}
	var buf []textproc.Token
	for _, p := range c.Pages {
		wp := wirePage{ID: p.ID, Entity: p.Entity, URL: p.URL, Title: p.Title, Links: p.Links}
		for i := range p.Paras {
			wpara := wirePara{Text: p.Paras[i].Text, Aspect: p.Paras[i].Aspect}
			if toks := p.ScanParaTokens(i, &buf); len(toks) > 0 {
				wpara.Tokens = slices.Clone(toks) // the dump leaves the page untokenized
			}
			wp.Paras = append(wp.Paras, wpara)
		}
		w.Pages = append(w.Pages, wp)
	}
	return w
}

// WriteJSON dumps the corpus as indented JSON — for inspection and for
// `cmp`ing two generations; nothing reads it back.
func (c *Corpus) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c.toWire()); err != nil {
		return fmt.Errorf("corpus: json encode: %w", err)
	}
	return nil
}
