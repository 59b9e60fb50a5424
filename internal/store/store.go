package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/textproc"
)

// magic identifies the file format and its major version.
const magic = "L2QSTOR1"

// Section names. Readers skip sections they do not know.
const (
	secMeta     = "META"
	secDict     = "DICT"
	secEntities = "ENTS"
	secPages    = "PAGE"
	secIndex    = "INDX"
	secEnd      = "END"
)

// maxSectionSize bounds one section payload (a corrupted length prefix must
// not cause a multi-gigabyte allocation).
const maxSectionSize = 1 << 31

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
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("store: write magic: %w", err)
	}

	dict := buildDictionary(func(emit func(textproc.Token)) {
		for _, p := range c.Pages {
			for i := range p.Paras {
				for _, t := range p.Paras[i].Tokens {
					emit(t)
				}
			}
		}
	})

	sections := []struct {
		name   string
		encode func(*Enc)
	}{
		{secMeta, func(e *Enc) { encodeMeta(e, c) }},
		{secDict, dict.encode},
		{secEntities, func(e *Enc) { encodeEntities(e, c) }},
		{secPages, func(e *Enc) { encodePages(e, c, dict) }},
	}
	for _, s := range sections {
		if err := writeSection(bw, s.name, s.encode); err != nil {
			return err
		}
	}
	if idx != nil {
		if err := writeSection(bw, secIndex, func(e *Enc) { encodeIndex(e, idx, dict) }); err != nil {
			return err
		}
	}
	if err := writeSection(bw, secEnd, func(*Enc) {}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	return nil
}

// Load reads a store file. Unknown sections are skipped; checksum or
// structural damage yields an error naming the section. keep, when
// non-nil, selects the pages the corpus retains (a cluster node keeps the
// partitions it serves): every page is still validated, only kept ones are
// materialized, the entity table stays complete, and the persisted
// whole-corpus index is not restored.
func Load(r io.Reader, keep func(corpus.PageID) bool) (*Bundle, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("store: read magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("store: bad magic %q (not a store file or wrong version)", head)
	}

	var (
		meta     *metaInfo
		dict     *dictionary
		ents     []*corpus.Entity
		pages    []*corpus.Page
		postings map[textproc.Token][]search.RawPosting
	)
	for {
		name, payload, err := readSection(br)
		if err != nil {
			return nil, err
		}
		if name == secEnd {
			break
		}
		d := NewDec(payload)
		switch name {
		case secMeta:
			meta = decodeMeta(d)
		case secDict:
			dict = decodeDictionary(d)
		case secEntities:
			ents = decodeEntities(d)
		case secPages:
			if dict == nil {
				return nil, fmt.Errorf("store: PAGE section before DICT")
			}
			pages = decodePages(d, dict, keep)
		case secIndex:
			if keep != nil {
				continue // indexes pages this load does not hold
			}
			if dict == nil {
				return nil, fmt.Errorf("store: INDX section before DICT")
			}
			postings = decodeIndex(d, dict)
		default:
			continue // forward compatibility: skip unknown sections
		}
		if d.Err() != nil {
			return nil, fmt.Errorf("store: section %s: %w", name, d.Err())
		}
		if !d.Done() {
			return nil, fmt.Errorf("store: section %s has %d trailing bytes", name, d.Remaining())
		}
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

// SaveFile writes the bundle to path atomically (temp file + rename).
func SaveFile(path string, c *corpus.Corpus, idx *search.Index) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := Save(f, c, idx); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: rename: %w", err)
	}
	return nil
}

// LoadFile reads a bundle from path (see Load for keep).
func LoadFile(path string, keep func(corpus.PageID) bool) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return Load(f, keep)
}

// writeSection emits one framed, checksummed section.
func writeSection(w *bufio.Writer, name string, encode func(*Enc)) error {
	e := &Enc{}
	encode(e)
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.AppendUvarint(hdr, uint64(e.Len()))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(e.Data()))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("store: write section %s header: %w", name, err)
	}
	if _, err := w.Write(e.Data()); err != nil {
		return fmt.Errorf("store: write section %s: %w", name, err)
	}
	return nil
}

// readSection reads one framed section and verifies its checksum.
func readSection(r *bufio.Reader) (string, []byte, error) {
	nameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return "", nil, fmt.Errorf("store: read section name length: %w", err)
	}
	if nameLen == 0 || nameLen > 64 {
		return "", nil, fmt.Errorf("store: implausible section name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return "", nil, fmt.Errorf("store: read section name: %w", err)
	}
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return "", nil, fmt.Errorf("store: section %s: read size: %w", name, err)
	}
	if size > maxSectionSize {
		return "", nil, fmt.Errorf("store: section %s: implausible size %d", name, size)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return "", nil, fmt.Errorf("store: section %s: read crc: %w", name, err)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return "", nil, fmt.Errorf("store: section %s: read payload: %w", name, err)
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return "", nil, fmt.Errorf("store: section %s: checksum mismatch (got %08x, want %08x)", name, got, want)
	}
	return string(name), payload, nil
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
