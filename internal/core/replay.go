package core

import (
	"context"
	"math"

	"l2q/internal/corpus"
)

// Checkpoint is the durable state of a harvesting session: everything
// needed to resume after a restart. Because retrieval over a fixed corpus
// is deterministic, the context Φ (the fired queries, in order) fully
// determines the gathered page set — so a checkpoint is tiny and resuming
// is an exact replay, not an approximation. Gathered page IDs and the
// collective-recall anchors are recorded for verification only: a replay
// that reproduces Φ but lands on different pages or a different R_E(Φ)
// means the corpus, engine, or model configuration changed under the
// checkpoint, and Resume fails loudly instead of silently corrupting the
// context model.
type Checkpoint struct {
	// Entity and Aspect identify the session.
	Entity corpus.EntityID `json:"entity"`
	Aspect corpus.Aspect   `json:"aspect"`
	// Booted records whether the seed results were ingested. A snapshot
	// taken mid-bootstrap (session created, seed not yet ingested) is
	// valid and resumes as a fresh start.
	Booted bool `json:"booted,omitempty"`
	// Fired is the ordered context Φ (excluding the implicit seed).
	Fired []Query `json:"fired"`
	// PageIDs are the gathered pages at checkpoint time, in order.
	PageIDs []corpus.PageID `json:"pageIds"`
	// RPhi and RStarPhi anchor the collective recalls R_E(Φ) and R*_E(Φ)
	// at snapshot time; Resume replay-verifies against them.
	RPhi     float64 `json:"rPhi,omitempty"`
	RStarPhi float64 `json:"rStarPhi,omitempty"`
}

// Snapshot captures the session's durable state. It is valid in every
// session state, including mid-bootstrap (before the seed ingest).
func (s *Session) Snapshot() Checkpoint {
	cp := Checkpoint{
		Entity:   s.Entity.ID,
		Aspect:   s.Aspect,
		Booted:   s.bootOnce,
		Fired:    append([]Query(nil), s.fired...),
		RPhi:     s.rPhi,
		RStarPhi: s.rStarPhi,
	}
	for _, p := range s.pages {
		cp.PageIDs = append(cp.PageIDs, p.ID)
	}
	return cp
}

// booted reports whether the checkpointed session had ingested its seed.
// Checkpoints written before the Booted field existed imply it from the
// recorded state (a session with fired queries or pages must have booted).
func (cp Checkpoint) booted() bool {
	return cp.Booted || len(cp.Fired) > 0 || len(cp.PageIDs) > 0
}

// anchorTol bounds the replay drift of the verification anchors. The
// replay recomputes R_E(Φ) with the same float operations in the same
// order, so anything beyond rounding noise means real divergence.
const anchorTol = 1e-9

// Resume replays a checkpoint into a fresh session: it bootstraps, fires
// the checkpointed queries in order through Ingest (a Trace installed
// before Resume gets their records), and verifies the gathered pages and
// the R_E(Φ)/R*_E(Φ) anchors match the recorded values (a mismatch means
// the corpus, engine or configuration changed under the checkpoint, which
// would silently corrupt the context model — better to fail loudly). The
// session must be newly created with the same configuration, engine,
// entity, aspect, Y, domain model and recognizer. A mid-bootstrap
// checkpoint (Booted false, nothing fired) resumes as a valid fresh
// session without firing the seed — the next StepCtx or the pipeline
// scheduler bootstraps it.
//
// The replay retrieves through ctx: over a network retriever a canceled
// ctx or a transport failure aborts it and comes back wrapped
// (errors.Is-matchable), never as a replay mismatch blamed on the corpus.
// A session whose Resume failed is partially replayed; discard it.
func (s *Session) Resume(ctx context.Context, cp Checkpoint) error {
	if s.bootOnce {
		return s.errorf("resume into a used session")
	}
	if cp.Entity != s.Entity.ID || cp.Aspect != s.Aspect {
		return s.errorf("checkpoint is for entity %d aspect %s", cp.Entity, cp.Aspect)
	}
	if !cp.booted() {
		return nil // mid-bootstrap snapshot: nothing to replay
	}
	if _, err := s.BootstrapCtx(ctx); err != nil {
		return s.errorf("replay seed query: %w", err)
	}
	for i, q := range cp.Fired {
		res, err := s.FetchQueryCtx(ctx, q)
		if err != nil {
			return s.errorf("replay query %d %q: %w", i+1, q, err)
		}
		s.Ingest(q, res)
	}
	if len(s.pages) != len(cp.PageIDs) {
		return s.errorf("replay gathered %d pages, checkpoint has %d (corpus changed?)",
			len(s.pages), len(cp.PageIDs))
	}
	for i, p := range s.pages {
		if p.ID != cp.PageIDs[i] {
			return s.errorf("replay page %d is %d, checkpoint has %d (corpus changed?)",
				i, p.ID, cp.PageIDs[i])
		}
	}
	// Anchor verification. Zero anchors are skipped: checkpoints written
	// before the fields existed carry none, and a genuinely-zero recall
	// is implied by the (already verified) page replay.
	if cp.RPhi != 0 && math.Abs(s.rPhi-cp.RPhi) > anchorTol {
		return s.errorf("replay R_E(Φ) %.12f, checkpoint has %.12f (model changed?)", s.rPhi, cp.RPhi)
	}
	if cp.RStarPhi != 0 && math.Abs(s.rStarPhi-cp.RStarPhi) > anchorTol {
		return s.errorf("replay R*_E(Φ) %.12f, checkpoint has %.12f (model changed?)", s.rStarPhi, cp.RStarPhi)
	}
	return nil
}
