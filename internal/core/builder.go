package core

import (
	"l2q/internal/corpus"
	"l2q/internal/graph"
	"l2q/internal/types"
)

// graphBuilder assembles a reinforcement graph over pages, queries and
// templates, shared by the domain phase (§IV-B) and entity phase (§IV-C).
// Pages and queries must be added before edges; template nodes and
// query–template edges are created automatically when queries are added
// (provided a recognizer is present).
//
// A builder made without a graph (g == nil) is the table-only form a
// session keeps while nothing asks for an individual utility: it holds the
// pages and the candidate table (queries, qs) and creates no vertex, edge
// or template.
type graphBuilder struct {
	cfg Config
	rec types.Recognizer // nil disables templates
	g   *graph.Graph     // nil: table only

	pages    []*corpus.Page
	pageNode map[corpus.PageID]graph.NodeID
	// qs holds the query vertices in registration order. Everything a step
	// loop needs per candidate lives in the queryVertex, so one lookup per
	// candidate replaces a lookup per fact. queries maps a query to its
	// index in qs where addQuery registers queries by string (the domain
	// phase, the reference oracle); a session's table is its candidate
	// pool's, registered by ordinal (sessionGraph.ingest), and leaves it
	// nil.
	queries   map[Query]int32
	qs        []queryVertex
	templates map[string]graph.NodeID

	// dm, when set, supplies the domain counting priors stored on each
	// query vertex (entity phase with templates; nil otherwise). table is
	// the session's gramTable, which fills a session builder's facts; the
	// domain phase and the reference oracle have none and compute them.
	dm    *DomainModel
	table *gramTable
}

// queryVertex is one registered query: its vertex (table-only builders
// leave node zero), its facts — tokens and template keys, shared with
// every other session that met the query — and the domain counting priors
// of the collective utilities (§V). None of them depends on the session's
// pages or context, so a step never recomputes them.
type queryVertex struct {
	q    Query
	node graph.NodeID
	*candidateFacts
	priorR, priorRStar float64
	// detached marks a query retired from the graph (a fired query in a
	// persistent session graph): its vertex is isolated and must not
	// receive new edges. A query already fired when its session table
	// registers it is detached from the start and gets no vertex at all.
	detached bool
}

// keysOf is qv's template keys as this builder sees them: none without a
// recognizer, although a shared record may carry the keys another
// session's recognizer read.
func (b *graphBuilder) keysOf(qv *queryVertex) []string {
	if b.rec == nil {
		return nil
	}
	return qv.keys
}

// newGraphBuilder returns an empty builder, with a graph to fill or (the
// session's table-only form) without one.
func newGraphBuilder(cfg Config, rec types.Recognizer, withGraph bool) *graphBuilder {
	b := &graphBuilder{cfg: cfg, rec: rec}
	if withGraph {
		b.g = graph.New()
		b.pageNode = make(map[corpus.PageID]graph.NodeID)
		b.templates = make(map[string]graph.NodeID)
	}
	return b
}

// addPage registers a page and its vertex. It is idempotent when the
// builder has a graph; a table-only builder is fed distinct pages by its
// session.
func (b *graphBuilder) addPage(p *corpus.Page) {
	if b.g != nil {
		if _, ok := b.pageNode[p.ID]; ok {
			return
		}
		b.pageNode[p.ID] = b.g.AddNode(graph.KindPage)
	}
	b.pages = append(b.pages, p)
}

// addQuery registers a query (idempotent) with its facts, its vertex, its
// template vertices and query–template edges.
func (b *graphBuilder) addQuery(q Query) {
	if _, ok := b.queries[q]; ok {
		return
	}
	if b.queries == nil {
		b.queries = make(map[Query]int32)
	}
	b.queries[q] = int32(len(b.qs))
	qv := queryVertex{q: q, candidateFacts: computeFacts(b.cfg, b.rec, q)}
	if b.dm != nil {
		qv.priorR, qv.priorRStar = b.dm.countingPrior(q, qv.keys)
	}
	b.qs = append(b.qs, qv)
	b.addQueryVertex(&b.qs[len(b.qs)-1])
}

// addQueryVertex creates the vertex of an enrolled query whose facts are
// set, along with its template vertices and query–template edges.
func (b *graphBuilder) addQueryVertex(qv *queryVertex) {
	qv.node = b.g.AddNode(graph.KindQuery)
	for _, key := range b.keysOf(qv) {
		tid, ok := b.templates[key]
		if !ok {
			tid = b.g.AddNode(graph.KindTemplate)
			b.templates[key] = tid
		}
		b.g.AddEdgeQT(qv.node, tid, 1)
	}
}

// addPQEdge connects a page and a query ("q can retrieve p"). Containment
// is binary (§III), so every edge weighs 1.
func (b *graphBuilder) addPQEdge(p *corpus.Page, qv *queryVertex) {
	b.g.AddEdgePQ(b.pageNode[p.ID], qv.node, 1)
}

// detach retires query ord from the graph (it was fired and left the
// candidate pool): every incident edge is removed, leaving the vertex
// isolated — which the fixpoint treats exactly as if it never existed.
func (b *graphBuilder) detach(ord int) {
	if b.qs[ord].detached {
		return
	}
	if b.g != nil {
		b.g.DetachQuery(b.qs[ord].node)
	}
	b.qs[ord].detached = true
}

// connect adds page–query edges for the entity phase's rebuild path: each
// page connects to every registered query it contains (conjunctive
// containment).
func (b *graphBuilder) connect() {
	for _, p := range b.pages {
		for i := range b.qs {
			if qv := &b.qs[i]; p.ContainsQuery(qv.toks) {
				b.addPQEdge(p, qv)
			}
		}
	}
}

// regPair holds the page regularization vectors for both modes:
// P̂(p) = Y(p) (Eq. 11) and R̂(p) = Y(p)/ΣY (Eq. 12).
type regPair struct {
	precision []float64
	recall    []float64
}

// pageRegularization derives the regularization from a relevance function.
func (b *graphBuilder) pageRegularization(y func(*corpus.Page) bool) regPair {
	return b.pageRegularizationScored(func(p *corpus.Page) float64 {
		if y(p) {
			return 1
		}
		return 0
	})
}

// pageRegularizationScored is the paper's real-valued generalization of
// Eq. 11–12 (§I "more generally, Y can map a page to a real-valued
// relevance score"): P̂(p) = Y(p) clamped to [0,1], R̂(p) = Y(p)/Σ Y(p′).
// The binary case reduces to the familiar 1 and 1/|relevant|.
func (b *graphBuilder) pageRegularizationScored(score func(*corpus.Page) float64) regPair {
	n := b.g.NumNodes()
	pr := regPair{precision: make([]float64, n), recall: make([]float64, n)}
	total := 0.0
	for _, p := range b.pages {
		s := clamp01(score(p))
		pr.precision[b.pageNode[p.ID]] = s
		total += s
	}
	if total > 0 {
		for _, p := range b.pages {
			id := b.pageNode[p.ID]
			pr.recall[id] = pr.precision[id] / total
		}
	}
	return pr
}

// addTemplateReg adds λ·U_D(t) on template nodes to a copy of base
// (Eq. 21–22), pulling utilities from the given per-key map.
func (b *graphBuilder) addTemplateReg(base []float64, util map[string]float64, lambda float64) []float64 {
	out := make([]float64, len(base))
	copy(out, base)
	if util == nil {
		return out
	}
	for key, id := range b.templates {
		if u, ok := util[key]; ok {
			out[id] += lambda * u
		}
	}
	return out
}

// solve runs the fixpoint for one mode and regularization vector.
func (b *graphBuilder) solve(mode graph.Mode, reg []float64) ([]float64, error) {
	return b.solveWarm(mode, reg, nil)
}

// solveWarm is solve with an optional warm-start iterate x0 (the previous
// step's utilities; may be shorter than the grown graph — new nodes
// cold-start at their regularization). The fixpoint is unique, so x0
// affects convergence speed only.
func (b *graphBuilder) solveWarm(mode graph.Mode, reg, x0 []float64) ([]float64, error) {
	res, err := graph.Solve(graph.Problem{
		G:       b.g,
		Mode:    mode,
		Alpha:   b.cfg.Alpha,
		Reg:     reg,
		Tol:     b.cfg.SolverTol,
		MaxIter: b.cfg.SolverMaxIter,
		X0:      x0,
	})
	if err != nil {
		return nil, err
	}
	return res.U, nil
}
