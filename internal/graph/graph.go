// Package graph implements the reinforcement graph of L2Q (§III–§IV) and
// the random-walk-with-restart fixpoint solver that computes probabilistic
// precision and recall utilities.
//
// The graph is tripartite: pages P, queries Q and templates T, with
// page–query edges ("q can retrieve p") and query–template edges
// ("t abstracts q"). Utilities satisfy the damped fixpoint of Eq. 13:
//
//	U(v) = (1−α)·F({U(v′) | v′ ∈ N(v)}) + α·Û(v)
//
// where F instantiates differently for precision (Eq. 6/8/15/17: weighted
// averages normalized at the *receiving* node — the backward walk) and for
// recall (Eq. 7/9/16/18: mass divided at the *sending* node — the forward
// walk). Queries average their page-side and template-side estimates
// (§IV-A: "we combine both sides by taking their average").
package graph

import "fmt"

// Kind discriminates the three vertex classes.
type Kind uint8

// Vertex kinds.
const (
	KindPage Kind = iota
	KindQuery
	KindTemplate
)

func (k Kind) String() string {
	switch k {
	case KindPage:
		return "page"
	case KindQuery:
		return "query"
	case KindTemplate:
		return "template"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NodeID indexes a vertex in a Graph.
type NodeID int32

type halfEdge struct {
	to NodeID
	w  float64
}

// Graph is a mutable tripartite reinforcement graph. Add nodes and edges,
// then hand it to Solve; no explicit finalize step is needed because weight
// totals are maintained incrementally. Mutation is also valid *after* a
// solve — appending nodes/edges (and detaching a query) keeps every total
// consistent, which is what lets a harvesting session grow one persistent
// graph across steps instead of rebuilding it.
type Graph struct {
	kinds []Kind

	pqByPage  [][]halfEdge // page → its query edges
	pqByQuery [][]halfEdge // query → its page edges
	qtByQuery [][]halfEdge // query → its template edges
	qtByTempl [][]halfEdge // template → its query edges

	totPQPage  []float64 // Σ w over a page's query edges
	totPQQuery []float64 // Σ w over a query's page edges
	totQTQuery []float64 // Σ w over a query's template edges
	totQTTempl []float64 // Σ w over a template's query edges

	numEdges int
}

// New creates an empty graph.
func New() *Graph { return &Graph{} }

// AddNode adds a vertex of the given kind and returns its ID.
func (g *Graph) AddNode(k Kind) NodeID {
	id := NodeID(len(g.kinds))
	g.kinds = append(g.kinds, k)
	g.pqByPage = append(g.pqByPage, nil)
	g.pqByQuery = append(g.pqByQuery, nil)
	g.qtByQuery = append(g.qtByQuery, nil)
	g.qtByTempl = append(g.qtByTempl, nil)
	g.totPQPage = append(g.totPQPage, 0)
	g.totPQQuery = append(g.totPQQuery, 0)
	g.totQTQuery = append(g.totQTQuery, 0)
	g.totQTTempl = append(g.totQTTempl, 0)
	return id
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.kinds) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.numEdges }

// KindOf returns a vertex's kind.
func (g *Graph) KindOf(id NodeID) Kind { return g.kinds[id] }

// Degree returns the number of incident edges of a vertex.
func (g *Graph) Degree(id NodeID) int {
	switch g.kinds[id] {
	case KindPage:
		return len(g.pqByPage[id])
	case KindQuery:
		return len(g.pqByQuery[id]) + len(g.qtByQuery[id])
	default:
		return len(g.qtByTempl[id])
	}
}

// AddEdgePQ connects a page and a query with weight w > 0 (Wpq in the
// paper: the strength with which q retrieves p). Panics on kind mismatch
// or non-positive weight — both are programmer errors.
func (g *Graph) AddEdgePQ(p, q NodeID, w float64) {
	if g.kinds[p] != KindPage || g.kinds[q] != KindQuery {
		panic(fmt.Sprintf("graph: AddEdgePQ(%s,%s)", g.kinds[p], g.kinds[q]))
	}
	if w <= 0 {
		panic("graph: non-positive edge weight")
	}
	g.pqByPage[p] = append(g.pqByPage[p], halfEdge{to: q, w: w})
	g.pqByQuery[q] = append(g.pqByQuery[q], halfEdge{to: p, w: w})
	g.totPQPage[p] += w
	g.totPQQuery[q] += w
	g.numEdges++
}

// AddEdgeQT connects a query and a template with weight w > 0 (Wqt: t
// abstracts q).
func (g *Graph) AddEdgeQT(q, t NodeID, w float64) {
	if g.kinds[q] != KindQuery || g.kinds[t] != KindTemplate {
		panic(fmt.Sprintf("graph: AddEdgeQT(%s,%s)", g.kinds[q], g.kinds[t]))
	}
	if w <= 0 {
		panic("graph: non-positive edge weight")
	}
	g.qtByQuery[q] = append(g.qtByQuery[q], halfEdge{to: t, w: w})
	g.qtByTempl[t] = append(g.qtByTempl[t], halfEdge{to: q, w: w})
	g.totQTQuery[q] += w
	g.totQTTempl[t] += w
	g.numEdges++
}

// DetachQuery removes every edge incident to a query vertex, leaving it
// isolated. An isolated vertex with zero regularization is invisible to
// both walks — its utility is 0 and it contributes to no neighbor — so
// detaching is exactly equivalent to the vertex never having been added.
// This is how a persistent session graph retires a fired query (fired
// queries leave the candidate pool) without renumbering nodes.
//
// Totals on the affected neighbors are recomputed by re-summing their
// remaining edges, not decremented, so they match a from-scratch build
// exactly. Cost is O(Σ degree of the detached query's neighbors).
func (g *Graph) DetachQuery(q NodeID) {
	if g.kinds[q] != KindQuery {
		panic(fmt.Sprintf("graph: DetachQuery(%s)", g.kinds[q]))
	}
	for _, e := range g.pqByQuery[q] {
		g.pqByPage[e.to] = dropEdgesTo(g.pqByPage[e.to], q)
		g.totPQPage[e.to] = sumWeights(g.pqByPage[e.to])
		g.numEdges--
	}
	for _, e := range g.qtByQuery[q] {
		g.qtByTempl[e.to] = dropEdgesTo(g.qtByTempl[e.to], q)
		g.totQTTempl[e.to] = sumWeights(g.qtByTempl[e.to])
		g.numEdges--
	}
	g.pqByQuery[q] = nil
	g.qtByQuery[q] = nil
	g.totPQQuery[q] = 0
	g.totQTQuery[q] = 0
}

// dropEdgesTo filters out all half-edges pointing at v, in place.
func dropEdgesTo(edges []halfEdge, v NodeID) []halfEdge {
	out := edges[:0]
	for _, e := range edges {
		if e.to != v {
			out = append(out, e)
		}
	}
	return out
}

func sumWeights(edges []halfEdge) float64 {
	s := 0.0
	for _, e := range edges {
		s += e.w
	}
	return s
}
