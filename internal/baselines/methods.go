package baselines

import (
	"slices"
	"strings"

	"l2q/internal/core"
	"l2q/internal/corpus"
)

// Method is one named query-selection method of the paper's evaluation —
// one of §VI-B's ten L2Q strategies or §VI-C's four baselines — with the
// side inputs a session running it needs.
type Method struct {
	// Name is the name the figures use.
	Name string
	// New returns a fresh selector. MQ reads domain and aspect (its
	// curated list), HR reads hr; the other methods ignore all three.
	New func(domain corpus.Domain, aspect corpus.Aspect, hr *HRModel) core.Selector
	// DomainModel reports whether the method's session gets the L2Q
	// domain model (§IV-B). RND gets it too, though it never reads it.
	DomainModel bool
	// ReadsUtilities reports whether the selector may read the domain
	// fixpoints' utilities, which a DomainModel solves on first read — so
	// a caller that times selection solves them first. The +q strategies
	// rank by them, P+t regularizes by them, and R+t does under
	// core.Config.UseWalkRecallReg.
	ReadsUtilities bool
	// NeedsHR reports whether New must be given a trained HRModel.
	NeedsHR bool
	// Baseline marks the §VI-C comparison methods; the rest are the L2Q
	// strategies.
	Baseline bool
}

// stateless adapts a constructor without inputs to Method.New.
func stateless(ctor func() core.Selector) func(corpus.Domain, corpus.Aspect, *HRModel) core.Selector {
	return func(corpus.Domain, corpus.Aspect, *HRModel) core.Selector { return ctor() }
}

// methods is the roster in the paper's order; Methods hands out copies.
var methods = [...]Method{
	{Name: "RND", New: stateless(core.NewRND), DomainModel: true},
	{Name: "P", New: stateless(core.NewP)},
	{Name: "R", New: stateless(core.NewR)},
	{Name: "P+q", New: stateless(core.NewPQ), DomainModel: true, ReadsUtilities: true},
	{Name: "R+q", New: stateless(core.NewRQ), DomainModel: true, ReadsUtilities: true},
	{Name: "P+t", New: stateless(core.NewPT), DomainModel: true, ReadsUtilities: true},
	{Name: "R+t", New: stateless(core.NewRT), DomainModel: true, ReadsUtilities: true},
	{Name: "L2QP", New: stateless(core.NewL2QP), DomainModel: true},
	{Name: "L2QR", New: stateless(core.NewL2QR), DomainModel: true},
	{Name: "L2QBAL", New: stateless(core.NewL2QBAL), DomainModel: true},
	{Name: "LM", New: stateless(NewLM), Baseline: true},
	{Name: "AQ", New: stateless(NewAQ), Baseline: true},
	{Name: "HR", NeedsHR: true, Baseline: true,
		New: func(_ corpus.Domain, _ corpus.Aspect, hr *HRModel) core.Selector { return NewHR(hr) }},
	{Name: "MQ", Baseline: true,
		New: func(d corpus.Domain, a corpus.Aspect, _ *HRModel) core.Selector { return NewMQFor(d, a) }},
}

// Methods returns the fourteen methods in the paper's order: the ten L2Q
// strategies, then the four baselines.
func Methods() []Method { return slices.Clone(methods[:]) }

// LookupMethod returns the method named name, compared case-insensitively
// (so "l2qbal" and "p+q" resolve).
func LookupMethod(name string) (Method, bool) {
	for _, m := range methods {
		if strings.EqualFold(m.Name, name) {
			return m, true
		}
	}
	return Method{}, false
}
