package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/eval"
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
// correct and complete on small graphs and the benchmark suite shows the
// blow-up against sampling-based discovery.

// CandidateRule decides whether a candidate triple is worth scoring.
// Rules mirror CHAI's filtering step: cheap structural checks that discard
// obviously-unreasonable triples before model inference.
type CandidateRule interface {
	Name() string
	// Admit reports whether the candidate should be kept.
	Admit(t kg.Triple) bool
}

// DomainRangeRule admits (s, r, o) only if s has been observed as a subject
// of r and o as an object of r somewhere in the graph — the closed-world
// analogue of an ontology's rdfs:domain / rdfs:range constraint, learned
// from the data. It is the strongest cheap filter for typed KGs: a triple
// like (person, capital_of, person) never passes.
type DomainRangeRule struct {
	subjects map[kg.RelationID]map[kg.EntityID]struct{}
	objects  map[kg.RelationID]map[kg.EntityID]struct{}
}

// NewDomainRangeRule learns the per-relation subject/object vocabularies
// from g.
func NewDomainRangeRule(g *kg.Graph) *DomainRangeRule {
	r := &DomainRangeRule{
		subjects: make(map[kg.RelationID]map[kg.EntityID]struct{}),
		objects:  make(map[kg.RelationID]map[kg.EntityID]struct{}),
	}
	for _, rel := range g.RelationIDs() {
		subs := make(map[kg.EntityID]struct{})
		for _, e := range g.SideEntities(rel, kg.SubjectSide) {
			subs[e] = struct{}{}
		}
		objs := make(map[kg.EntityID]struct{})
		for _, e := range g.SideEntities(rel, kg.ObjectSide) {
			objs[e] = struct{}{}
		}
		r.subjects[rel] = subs
		r.objects[rel] = objs
	}
	return r
}

// Name implements CandidateRule.
func (r *DomainRangeRule) Name() string { return "domain_range" }

// Admit implements CandidateRule.
func (r *DomainRangeRule) Admit(t kg.Triple) bool {
	if _, ok := r.subjects[t.R][t.S]; !ok {
		return false
	}
	_, ok := r.objects[t.R][t.O]
	return ok
}

// NoSelfLoopRule discards triples whose subject equals their object.
// Reflexive facts are almost always modelling errors in benchmark KGs.
type NoSelfLoopRule struct{}

// Name implements CandidateRule.
func (NoSelfLoopRule) Name() string { return "no_self_loop" }

// Admit implements CandidateRule.
func (NoSelfLoopRule) Admit(t kg.Triple) bool { return t.S != t.O }

// FunctionalRelationRule discards new objects for relations that are
// observed to be functional (every subject has exactly one object in g):
// if (s, r, o₀) is known, a candidate (s, r, o₁) with o₁ ≠ o₀ contradicts
// functionality. Tolerance admits relations whose subjects have on average
// at most that many objects.
type FunctionalRelationRule struct {
	functional map[kg.RelationID]bool
	known      map[[2]int64]bool // (relation, subject) with an existing object
}

// NewFunctionalRelationRule learns functional relations from g. tolerance
// ≥ 1 is the maximum average objects-per-subject for a relation to count
// as functional (1.0 = strictly functional in the observed data).
func NewFunctionalRelationRule(g *kg.Graph, tolerance float64) *FunctionalRelationRule {
	if tolerance < 1 {
		tolerance = 1
	}
	r := &FunctionalRelationRule{
		functional: make(map[kg.RelationID]bool),
		known:      make(map[[2]int64]bool),
	}
	for _, rel := range g.RelationIDs() {
		subjects := g.SideEntities(rel, kg.SubjectSide)
		triples := g.RelationTriples(rel)
		if len(subjects) == 0 {
			continue
		}
		avg := float64(len(triples)) / float64(len(subjects))
		if avg <= tolerance {
			r.functional[rel] = true
			for _, t := range triples {
				r.known[[2]int64{int64(t.R), int64(t.S)}] = true
			}
		}
	}
	return r
}

// Name implements CandidateRule.
func (r *FunctionalRelationRule) Name() string { return "functional_relation" }

// Admit implements CandidateRule.
func (r *FunctionalRelationRule) Admit(t kg.Triple) bool {
	if !r.functional[t.R] {
		return true
	}
	return !r.known[[2]int64{int64(t.R), int64(t.S)}]
}

// DefaultRules returns the rule set used by the CHAI-style baseline:
// self-loop removal, learned domain/range constraints, and strict
// functionality.
func DefaultRules(g *kg.Graph) []CandidateRule {
	return []CandidateRule{
		NoSelfLoopRule{},
		NewDomainRangeRule(g),
		NewFunctionalRelationRule(g, 1.0),
	}
}

// ExhaustiveOptions parameterizes ExhaustiveDiscover.
type ExhaustiveOptions struct {
	// TopN is the same quality threshold as in sampling-based discovery.
	// Zero means 500.
	TopN int
	// Relations restricts the sweep; nil means all relations in the graph.
	Relations []kg.RelationID
	// Rules prune candidates before inference (CHAI's filtering step).
	// Nil means no pruning — the fully naive baseline.
	Rules []CandidateRule
	// MaxCandidates aborts with an error if the post-pruning candidate
	// count would exceed it — the guard that makes the paper's scale
	// argument explicit instead of OOM-ing. Zero means 10 million.
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
	// Pruned counts candidates discarded by rules.
	Pruned int64
}

// ExhaustiveDiscover enumerates every candidate (s, r, o) over the full
// entity vocabulary for each relation (the complement of g), applies the
// pruning rules, ranks the survivors with the model, and returns the facts
// within TopN. It errors out rather than attempt an infeasible enumeration;
// use it on small graphs and as the completeness reference for the
// sampling strategies.
func ExhaustiveDiscover(ctx context.Context, model kge.Model, g *kg.Graph, opts ExhaustiveOptions) (*Result, *ExhaustiveStats, error) {
	if err := kge.CheckCovers(model, g); err != nil {
		return nil, nil, err
	}
	if opts.TopN == 0 {
		opts.TopN = 500
	}
	if opts.MaxCandidates == 0 {
		opts.MaxCandidates = 10_000_000
	}
	relations := opts.Relations
	if relations == nil {
		relations = g.RelationIDs()
	}
	n := int64(g.NumEntities())
	stats := &ExhaustiveStats{
		ComplementSize: n*n*int64(len(relations)) - int64(countRelationTriples(g, relations)),
	}
	start := time.Now()

	var filter *kg.Graph
	if opts.RankFiltered {
		filter = g
	}
	ranker := eval.NewRanker(model, filter)

	// Candidates are generated, ranked and filtered one relation at a time,
	// bounding memory by one relation's complement (n² triples) rather than
	// the whole complement.
	res := &Result{}
	candidates := make([]kg.Triple, 0, n)
	for _, r := range relations {
		candidates = candidates[:0]
		for s := int64(0); s < n; s++ {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			for o := int64(0); o < n; o++ {
				t := kg.Triple{S: kg.EntityID(s), R: r, O: kg.EntityID(o)}
				if g.Contains(t) {
					continue
				}
				if !admitAll(opts.Rules, t) {
					stats.Pruned++
					continue
				}
				candidates = append(candidates, t)
				if stats.Generated+len(candidates) > opts.MaxCandidates {
					return nil, nil, fmt.Errorf(
						"core: exhaustive enumeration exceeds %d candidates (complement has %d); use sampling-based DiscoverFacts",
						opts.MaxCandidates, stats.ComplementSize)
				}
			}
		}
		stats.Generated += len(candidates)

		rStart := time.Now()
		ranks, groups, blocks, err := ranker.RankTriples(ctx, candidates, opts.Workers, nil)
		res.Stats.RankTime += time.Since(rStart)
		if err != nil {
			return nil, nil, err
		}
		res.Stats.ScoreSweeps += groups
		res.Stats.BatchedSweeps += blocks
		for i, t := range candidates {
			if ranks[i] <= opts.TopN {
				res.Facts = append(res.Facts, Fact{Triple: t, Rank: ranks[i]})
			}
		}
	}

	SortFactsByRank(res.Facts)
	res.Stats.Total = time.Since(start)
	res.Stats.Generated = stats.Generated
	res.Stats.Relations = len(relations)
	res.Stats.BatchRows = res.Stats.ScoreSweeps
	return res, stats, nil
}

func countRelationTriples(g *kg.Graph, relations []kg.RelationID) int {
	total := 0
	for _, r := range relations {
		total += len(g.RelationTriples(r))
	}
	return total
}

func admitAll(rules []CandidateRule, t kg.Triple) bool {
	for _, rule := range rules {
		if !rule.Admit(t) {
			return false
		}
	}
	return true
}
