// Package core implements the paper's primary contribution: the fact
// discovery algorithm (Algorithm 1, "DiscoverFacts") and the six candidate
// sampling strategies it evaluates — UNIFORM RANDOM, ENTITY FREQUENCY,
// GRAPH DEGREE, CLUSTERING COEFFICIENT, CLUSTERING TRIANGLES and
// CLUSTERING SQUARES.
//
// Given a trained KGE model M and the knowledge graph G it was trained on,
// fact discovery finds triples in the complement of G that M considers
// highly plausible, without any input queries: for each relation it samples
// candidate subjects and objects according to a strategy, builds the mesh
// grid of candidate triples, drops the ones already in G, ranks the rest
// against their object-side corruptions with M, and keeps candidates ranked
// within top_n.
package core

import (
	"fmt"

	"repro/internal/graphstats"
	"repro/internal/kg"
)

// Strategy assigns sampling weights to candidate subject and object
// entities per relation. Bind attaches the graph; Weights is then called
// once per relation, inside the discovery loop.
//
// Faithful to Algorithm 1 (line 7 sits inside the per-relation loop), the
// graph-statistic strategies recompute their statistics on every Weights
// call by default — this is precisely what makes CLUSTERING COEFFICIENT and
// CLUSTERING TRIANGLES slow in the paper's Figure 2 and what couples
// discovery runtime to the relation count. Strategies that support it can
// memoize the statistics across relations via SetCacheWeights (the
// weight-caching ablation).
type Strategy interface {
	// Name returns the canonical strategy name as used in the paper.
	Name() string
	// Bind attaches the knowledge graph the strategy will sample from.
	Bind(g *kg.Graph)
	// Weights returns, for relation r, the candidate entities on each side
	// together with their unnormalized sampling weights. Entities and
	// weights are parallel slices; weights must be non-negative. The
	// candidate pools are the unique entities observed on each side of r in
	// the graph, following AmpliGraph's discover_facts.
	Weights(r kg.RelationID) (subjects []kg.EntityID, subjectW []float64, objects []kg.EntityID, objectW []float64)
}

// WeightCacher is implemented by strategies whose graph-level statistics
// can be memoized across relations (the node-statistic strategies). Caching
// departs from Algorithm 1's per-relation recomputation; it exists for the
// ablation study.
type WeightCacher interface {
	SetCacheWeights(cache bool)
}

// StrategyNames lists the six strategies in the paper's order.
func StrategyNames() []string {
	return []string{
		"uniform_random",
		"entity_frequency",
		"graph_degree",
		"cluster_coefficient",
		"cluster_triangles",
		"cluster_squares",
	}
}

// StrategyByName constructs a strategy from its canonical name: the paper's
// six and the two extensions of extensions.go (MIXED EXPLORATION at ε = 0.3;
// construct NewMixedExploration directly for other values). It is the one
// resolver, so every command accepts the names every other command writes.
func StrategyByName(name string) (Strategy, error) {
	switch name {
	case "uniform_random":
		return NewUniformRandom(), nil
	case "entity_frequency":
		return NewEntityFrequency(), nil
	case "graph_degree":
		return NewGraphDegree(), nil
	case "cluster_coefficient":
		return NewClusteringCoefficient(), nil
	case "cluster_triangles":
		return NewClusteringTriangles(), nil
	case "cluster_squares":
		return NewClusteringSquares(), nil
	case "inverse_degree":
		return NewInverseDegree(), nil
	case "mixed_exploration":
		return NewMixedExploration(0.3), nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q (supported: %v)", name, AllStrategyNames())
	}
}

// uniformRandom assigns every entity on a side equal probability
// (Equation 1). Note that an entity appearing on both sides can still end
// up with different probabilities, because the pools differ in size.
type uniformRandom struct{ g *kg.Graph }

// NewUniformRandom returns the UNIFORM RANDOM strategy — the paper's
// baseline.
func NewUniformRandom() Strategy { return &uniformRandom{} }

func (s *uniformRandom) Name() string     { return "uniform_random" }
func (s *uniformRandom) Bind(g *kg.Graph) { s.g = g }

func (s *uniformRandom) Weights(r kg.RelationID) ([]kg.EntityID, []float64, []kg.EntityID, []float64) {
	subs := s.g.SideEntities(r, kg.SubjectSide)
	objs := s.g.SideEntities(r, kg.ObjectSide)
	return subs, constWeights(len(subs)), objs, constWeights(len(objs))
}

func constWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// entityFrequency weights each entity by its occurrence count on that side
// of the relation (Equation 2): frequent entities are sampled more often.
type entityFrequency struct{ g *kg.Graph }

// NewEntityFrequency returns the ENTITY FREQUENCY strategy.
func NewEntityFrequency() Strategy { return &entityFrequency{} }

func (s *entityFrequency) Name() string     { return "entity_frequency" }
func (s *entityFrequency) Bind(g *kg.Graph) { s.g = g }

func (s *entityFrequency) Weights(r kg.RelationID) ([]kg.EntityID, []float64, []kg.EntityID, []float64) {
	subs := s.g.SideEntities(r, kg.SubjectSide)
	objs := s.g.SideEntities(r, kg.ObjectSide)
	sw := make([]float64, len(subs))
	for i, e := range subs {
		sw[i] = float64(s.g.SideCount(r, kg.SubjectSide, e))
	}
	ow := make([]float64, len(objs))
	for i, e := range objs {
		ow[i] = float64(s.g.SideCount(r, kg.ObjectSide, e))
	}
	return subs, sw, objs, ow
}

// nodeStatStrategy is the shared shape of the strategies whose weight is a
// global (side-independent) node statistic: GRAPH DEGREE, CLUSTERING
// COEFFICIENT, CLUSTERING TRIANGLES, CLUSTERING SQUARES. Per Algorithm 1,
// the statistic is recomputed on every Weights call; SetCacheWeights(true)
// memoizes it for the ablation. If every candidate on a side has zero
// weight (possible for triangle-based statistics on sparse graphs), the
// side falls back to uniform so sampling remains well defined.
type nodeStatStrategy struct {
	name string
	// compute derives the per-entity statistic. The undirected projection
	// is built lazily through the provider so degree-style statistics (the
	// paper's "linear time" group) never pay for it.
	compute func(g *kg.Graph, undirected func() *graphstats.Undirected) []float64

	g     *kg.Graph
	cache bool
	stat  []float64 // valid only when cache is set and stat != nil
}

func (s *nodeStatStrategy) Name() string { return s.name }

func (s *nodeStatStrategy) Bind(g *kg.Graph) {
	s.g = g
	s.stat = nil
}

// SetCacheWeights implements WeightCacher.
func (s *nodeStatStrategy) SetCacheWeights(cache bool) {
	s.cache = cache
	if !cache {
		s.stat = nil
	}
}

func (s *nodeStatStrategy) statistics() []float64 {
	if s.cache && s.stat != nil {
		return s.stat
	}
	g := s.g
	stat := s.compute(g, func() *graphstats.Undirected { return graphstats.BuildUndirected(g) })
	if s.cache {
		s.stat = stat
	}
	return stat
}

func (s *nodeStatStrategy) Weights(r kg.RelationID) ([]kg.EntityID, []float64, []kg.EntityID, []float64) {
	stat := s.statistics()
	subs := s.g.SideEntities(r, kg.SubjectSide)
	objs := s.g.SideEntities(r, kg.ObjectSide)
	return subs, project(stat, subs), objs, project(stat, objs)
}

func project(stat []float64, pool []kg.EntityID) []float64 {
	w := make([]float64, len(pool))
	var sum float64
	for i, e := range pool {
		if int(e) < len(stat) {
			w[i] = stat[e]
		}
		sum += w[i]
	}
	if sum == 0 {
		return constWeights(len(pool))
	}
	return w
}

// NewGraphDegree returns the GRAPH DEGREE strategy (Equation 3): weight
// proportional to total (in+out) degree, identical on both sides.
func NewGraphDegree() Strategy {
	return &nodeStatStrategy{
		name: "graph_degree",
		compute: func(g *kg.Graph, _ func() *graphstats.Undirected) []float64 {
			w := make([]float64, g.NumEntities())
			for e := range w {
				w[e] = float64(g.Degree(kg.EntityID(e)))
			}
			return w
		},
	}
}

// NewClusteringTriangles returns the CLUSTERING TRIANGLES strategy
// (Equation 4): weight proportional to the local triangle count T(v) on the
// undirected homogeneous projection.
func NewClusteringTriangles() Strategy {
	return &nodeStatStrategy{
		name: "cluster_triangles",
		compute: func(_ *kg.Graph, undirected func() *graphstats.Undirected) []float64 {
			tri := undirected().Triangles()
			w := make([]float64, len(tri))
			for i, t := range tri {
				w[i] = float64(t)
			}
			return w
		},
	}
}

// NewClusteringCoefficient returns the CLUSTERING COEFFICIENT strategy
// (Equation 5): weight proportional to the local clustering coefficient
// c(v) = 2T(v)/(deg(v)(deg(v)−1)).
func NewClusteringCoefficient() Strategy {
	return &nodeStatStrategy{
		name: "cluster_coefficient",
		compute: func(_ *kg.Graph, undirected func() *graphstats.Undirected) []float64 {
			return undirected().LocalClustering(nil)
		},
	}
}

// NewClusteringSquares returns the CLUSTERING SQUARES strategy (Equation 6):
// weight proportional to the squares clustering coefficient c₄(v). Its
// weight computation is orders of magnitude more expensive than the other
// strategies' — the reason the paper excluded it after a 54-hour run; the
// exclusion experiment (X1) measures exactly this.
func NewClusteringSquares() Strategy {
	return &nodeStatStrategy{
		name: "cluster_squares",
		compute: func(_ *kg.Graph, undirected func() *graphstats.Undirected) []float64 {
			return undirected().SquareClustering()
		},
	}
}
