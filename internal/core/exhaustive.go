package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/kg"
	"repro/internal/kge"
)

// This file implements the baseline the paper contrasts sampling against:
// exhaustive candidate generation over the complement of the KG, as assumed
// by CHAI (Borrego et al., 2019 — reference [6] in the paper), optionally
// pruned by CHAI-style rules that discard "illogical" triples before the
// expensive model inference step.
//
// The paper's introduction works out why the plain exhaustive approach
// cannot scale (|E|²·|R| − |G| candidates; thousands of years of inference
// for YAGO3-10); this implementation makes that argument measurable: it is
// correct and complete on small graphs, ExampleExhaustiveDiscover prints how
// much of the complement sampling scores on a 250-entity graph, and
// BenchmarkAblationRulePruning times one relation with and without rules.

// ExhaustiveOptions parameterizes ExhaustiveDiscover.
type ExhaustiveOptions struct {
	// TopN is the same quality threshold as in sampling-based discovery.
	// Zero means 500; a negative value is refused.
	TopN int
	// Relations restricts the sweep; nil means all relations in the graph.
	Relations []kg.RelationID
	// Rules prunes candidates before inference (CHAI's filtering step) with
	// three rules learned from the graph: no self-loops; domain and range,
	// so s must have been a subject of r and o an object of r; and strict
	// functionality, so a relation whose every subject has exactly one
	// object gets no new objects for them. False scores the whole
	// complement, the fully naive baseline.
	Rules bool
	// MaxCandidates aborts with an error if the post-pruning candidate
	// count would exceed it — the guard that makes the paper's scale
	// argument explicit instead of OOM-ing. Zero means 10 million; a
	// negative value is refused.
	MaxCandidates int
	// RankFiltered selects the filtered ranking protocol.
	RankFiltered bool
	// Workers bounds ranking parallelism; zero means GOMAXPROCS.
	Workers int
}

// ExhaustiveStats instruments an exhaustive run.
type ExhaustiveStats struct {
	// ComplementSize is |E|²·|R| − |G| restricted to the swept relations:
	// the number of candidates the naive baseline must consider.
	ComplementSize int64
	// Generated is the number of candidates actually scored (after rules).
	Generated int
	// Pruned counts candidates discarded by rules: ComplementSize − Generated.
	Pruned int64
}

// ExhaustiveDiscover enumerates every candidate (s, r, o) over the full
// entity vocabulary for each relation (the complement of g), applies the
// pruning rules, ranks the survivors with the model, and returns the facts
// within TopN. It shares DiscoverFacts' relation loop and differs only in
// candidate generation. It errors out rather than attempt an infeasible
// enumeration; use it on small graphs and as the completeness reference for
// the sampling strategies.
func ExhaustiveDiscover(ctx context.Context, model kge.Model, g *kg.Graph, opts ExhaustiveOptions) (*Result, *ExhaustiveStats, error) {
	if opts.TopN == 0 {
		opts.TopN = 500
	}
	if opts.MaxCandidates == 0 {
		opts.MaxCandidates = 10_000_000
	}
	if err := checkLimits(opts.TopN, opts.MaxCandidates); err != nil {
		return nil, nil, err
	}
	if err := kge.CheckCovers(model, g); err != nil {
		return nil, nil, err
	}
	relations := opts.Relations
	if relations == nil {
		relations = g.RelationIDs()
	}
	all := make([]kg.EntityID, g.NumEntities())
	for i := range all {
		all[i] = kg.EntityID(i)
	}
	n := int64(len(all))
	stats := &ExhaustiveStats{}
	for _, r := range relations {
		stats.ComplementSize += n*n - int64(g.RelationLen(r))
	}

	// Candidates are generated, ranked and filtered one relation at a time,
	// bounding memory by one relation's complement (n² triples) rather than
	// the whole complement; the buffer is reused across relations.
	var candidates []kg.Triple
	res, err := sweepRelations(ctx, model, g, Options{
		TopN: opts.TopN, Relations: relations, RankFiltered: opts.RankFiltered, Workers: opts.Workers,
	}, func(r kg.RelationID, rel *RelationStats) ([]kg.Triple, error) {
		start := time.Now()
		subs, objs := all, all
		if opts.Rules {
			subs, objs = g.SideEntities(r, kg.SubjectSide), g.SideEntities(r, kg.ObjectSide)
			if g.RelationLen(r) == len(subs) {
				return nil, nil // functional: every subject already has its object
			}
		}
		var ok bool
		candidates, ok = complementRows(candidates[:0], g, r, subs, objs, opts.Rules, opts.MaxCandidates-stats.Generated)
		rel.GenerateTime = time.Since(start)
		if !ok {
			return nil, fmt.Errorf(
				"core: exhaustive enumeration exceeds %d candidates (complement has %d); use sampling-based DiscoverFacts",
				opts.MaxCandidates, stats.ComplementSize)
		}
		stats.Generated += len(candidates)
		return candidates, nil
	})
	if err != nil {
		return nil, nil, err
	}
	stats.Pruned = stats.ComplementSize - int64(stats.Generated)
	return res, stats, nil
}

// complementRows appends to dst relation r's complement row by row: for each
// subject s of subs, every o of objs (ascending) that is not already an
// object of (s, r) in g — found by merging objs with g's sorted row — and,
// under noSelf, not s itself. It stops and reports false once dst holds more
// than budget triples, checked per row, so an infeasible enumeration costs at
// most one row past the budget.
func complementRows(dst []kg.Triple, g *kg.Graph, r kg.RelationID, subs, objs []kg.EntityID, noSelf bool, budget int) ([]kg.Triple, bool) {
	for _, s := range subs {
		known := g.ObjectsOf(s, r)
		k := 0
		for _, o := range objs {
			for k < len(known) && known[k] < o {
				k++
			}
			if (k < len(known) && known[k] == o) || (noSelf && o == s) {
				continue
			}
			dst = append(dst, kg.Triple{S: s, R: r, O: o})
		}
		if len(dst) > budget {
			return dst, false
		}
	}
	return dst, true
}
