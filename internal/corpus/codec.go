package corpus

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"

	"l2q/internal/textproc"
)

// wireCorpus is the serialization schema; it keeps the wire format decoupled
// from the in-memory struct (which carries caches).
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
	for _, p := range c.Pages {
		wp := wirePage{ID: p.ID, Entity: p.Entity, URL: p.URL, Title: p.Title, Links: p.Links}
		for i := range p.Paras {
			wp.Paras = append(wp.Paras, wirePara{
				Text: p.Paras[i].Text, Tokens: p.Paras[i].Tokens, Aspect: p.Paras[i].Aspect,
			})
		}
		w.Pages = append(w.Pages, wp)
	}
	return w
}

func fromWire(w wireCorpus) (*Corpus, error) {
	c := New(w.Domain)
	for i := range w.Entities {
		we := w.Entities[i]
		err := c.AddEntity(&Entity{
			ID: we.ID, Domain: we.Domain, Name: we.Name,
			SeedQuery: we.SeedQuery, Attrs: we.Attrs,
		})
		if err != nil {
			return nil, err
		}
	}
	for i := range w.Pages {
		wp := w.Pages[i]
		p := &Page{ID: wp.ID, Entity: wp.Entity, URL: wp.URL, Title: wp.Title, Links: wp.Links}
		paras := make([]Paragraph, len(wp.Paras))
		for j := range wp.Paras {
			paras[j] = Paragraph{Text: wp.Paras[j].Text, Tokens: wp.Paras[j].Tokens, Aspect: wp.Paras[j].Aspect}
		}
		p.SetParas(paras, nil)
		if err := c.AddPage(p); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// WriteGob serializes the corpus in gob format (compact, for tool caching).
func (c *Corpus) WriteGob(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(c.toWire()); err != nil {
		return fmt.Errorf("corpus: gob encode: %w", err)
	}
	return nil
}

// ReadGob deserializes a corpus written by WriteGob.
func ReadGob(r io.Reader) (*Corpus, error) {
	var w wireCorpus
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("corpus: gob decode: %w", err)
	}
	return fromWire(w)
}

// WriteJSON serializes the corpus as indented JSON (for inspection).
func (c *Corpus) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c.toWire()); err != nil {
		return fmt.Errorf("corpus: json encode: %w", err)
	}
	return nil
}

// ReadJSON deserializes a corpus written by WriteJSON.
func ReadJSON(r io.Reader) (*Corpus, error) {
	var w wireCorpus
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("corpus: json decode: %w", err)
	}
	return fromWire(w)
}
