package webapi

// POST /api/v1/ingest: a writable server's write path. A batch of pages is
// validated as a whole, appended to the corpus, and absorbed by the
// generational engine — all under one critical section of the backend's
// lock, so the corpus page order IS the ingest order. That ordering is the parity
// contract's backbone: a frozen engine rebuilt from the grown corpus
// assigns the same ordinals and therefore the same rankings as the live
// engine that grew.
//
// Idempotency: a page whose ID the server already holds is skipped and
// counted in Duplicates, not rejected — the client's retry loop may
// deliver a batch twice (the request succeeded but the ack was lost), and
// re-ingesting must not double-count collection statistics. Contract
// errors (unknown entity with no registration info, empty batch, empty
// page) reject the WHOLE batch before any mutation: partial application
// would leave the client unable to tell which pages landed.

import (
	"encoding/json"
	"net/http"

	"l2q/internal/corpus"
	"l2q/internal/store"
)

// IngestParagraph is one paragraph of an ingested page. Text is
// tokenized SERVER-side with the corpus tokenizer — a client-side
// tokenization could disagree on phrase boundaries and silently break
// grown-vs-rebuilt ranking parity.
type IngestParagraph struct {
	Text   string `json:"text"`
	Aspect string `json:"aspect,omitempty"`
}

// IngestPage is one page of an ingest batch. EntityName and SeedQuery
// auto-register the entity when its ID is new to the corpus; for a known
// entity they are ignored.
type IngestPage struct {
	ID         corpus.PageID     `json:"id"`
	Entity     corpus.EntityID   `json:"entity"`
	EntityName string            `json:"entityName,omitempty"`
	SeedQuery  string            `json:"seedQuery,omitempty"`
	URL        string            `json:"url,omitempty"`
	Title      string            `json:"title,omitempty"`
	Paras      []IngestParagraph `json:"paras"`
	Links      []corpus.PageID   `json:"links,omitempty"`
}

// IngestRequest is the POST /api/v1/ingest payload (JSON or one
// wireIngest frame).
type IngestRequest struct {
	Pages []IngestPage `json:"pages"`
}

// IngestResponse acknowledges an ingest batch with the engine's
// post-absorb gauges, so a load driver can track ingest lag and segment
// churn without a second metrics round trip.
type IngestResponse struct {
	// Ingested counts pages newly absorbed by this request.
	Ingested int `json:"ingested"`
	// Duplicates counts pages skipped because their ID was already
	// present (the retry-idempotency path).
	Duplicates int `json:"duplicates"`
	// NumDocs, Epoch and Segments snapshot the live engine after absorb.
	NumDocs  int    `json:"numDocs"`
	Epoch    uint64 `json:"epoch"`
	Segments int    `json:"segments"`
}

// handleIngest answers 501 on every server but a writable single-node one
// (NewServer given the ingest tokenizer).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	b, ok := s.backend.(*localBackend)
	if !ok || b.tok == nil {
		writeError(w, http.StatusNotImplemented, "ingest not supported: server is not live (start with -live)")
		return
	}
	body, ok := readBody(w, r, maxResponseBytes)
	if !ok {
		return
	}
	var req IngestRequest
	if isWireFrame(body) {
		if err := decodeFramePayload(body, wireIngest, func(d *store.Dec) { req = decodeIngestWire(d) }); err != nil {
			writeError(w, http.StatusBadRequest, "bad ingest frame: "+err.Error())
			return
		}
	} else if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad ingest payload: "+err.Error())
		return
	}
	if len(req.Pages) == 0 {
		writeError(w, http.StatusBadRequest, "empty ingest batch")
		return
	}
	resp, err := b.ingest(req)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	s.respond(w, r, wireIngest, func(e *store.Enc) { encodeIngestAckWire(e, resp) }, resp)
}

// ingest validates and applies one batch under the corpus write lock of a
// writable backend. An error means the batch was rejected whole, nothing
// applied.
func (b *localBackend) ingest(req IngestRequest) (IngestResponse, error) {
	var resp IngestResponse
	b.mu.Lock()
	defer b.mu.Unlock()

	// Validate the whole batch before touching anything. Duplicate IDs
	// within the batch count against the FIRST occurrence: the first copy
	// lands, later copies are duplicates. An unknown entity needs
	// registration info on only ONE page of the batch — the natural
	// client shape sends it once and references the ID afterwards.
	seen := make(map[corpus.PageID]bool, len(req.Pages))
	reg := make(map[corpus.EntityID]bool)
	for i := range req.Pages {
		p := &req.Pages[i]
		if _, dup := b.byID[p.ID]; dup || seen[p.ID] {
			continue // skipped later; nothing else to validate
		}
		seen[p.ID] = true
		if len(p.Paras) == 0 {
			return resp, httpErrorf(http.StatusBadRequest, "page %d has no paragraphs", p.ID)
		}
		if b.corpus.Entity(p.Entity) == nil && !reg[p.Entity] {
			if p.EntityName == "" && p.SeedQuery == "" {
				return resp, httpErrorf(http.StatusBadRequest,
					"page %d references unknown entity %d and carries no entityName/seedQuery to register it",
					p.ID, p.Entity)
			}
			reg[p.Entity] = true
		}
	}

	added := make([]*corpus.Page, 0, len(req.Pages))
	for i := range req.Pages {
		ip := &req.Pages[i]
		if _, dup := b.byID[ip.ID]; dup {
			resp.Duplicates++
			continue
		}
		if b.corpus.Entity(ip.Entity) == nil {
			ent := &corpus.Entity{
				ID:        ip.Entity,
				Domain:    b.corpus.Domain,
				Name:      ip.EntityName,
				SeedQuery: ip.SeedQuery,
			}
			if err := b.corpus.AddEntity(ent); err != nil {
				return resp, httpErrorf(http.StatusBadRequest, "%v", err) // unreachable after validation; belt and braces
			}
		}
		p := &corpus.Page{
			ID:     ip.ID,
			Entity: ip.Entity,
			URL:    ip.URL,
			Title:  ip.Title,
			Links:  ip.Links,
		}
		paras := make([]corpus.Paragraph, len(ip.Paras))
		for j, para := range ip.Paras {
			paras[j] = corpus.Paragraph{Text: para.Text, Aspect: corpus.Aspect(para.Aspect)}
		}
		p.SetParas(paras, b.tok)
		p.Tokens() // tokenized here, once, not under the engine's writer lock
		if err := b.corpus.AddPage(p); err != nil {
			return resp, httpErrorf(http.StatusBadRequest, "%v", err)
		}
		b.byID[p.ID] = p
		added = append(added, p)
	}
	// Absorb inside the lock: concurrent batches must reach the engine in
	// corpus order. Searches never contend here — they read epoch views.
	if len(added) > 0 {
		b.live.Add(added...)
	}
	resp.Ingested = len(added)
	m := b.live.Metrics()
	resp.NumDocs = m.NumDocs
	resp.Epoch = m.Epoch
	resp.Segments = m.Segments
	return resp, nil
}
