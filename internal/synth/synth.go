// Package synth generates deterministic synthetic knowledge graphs that
// stand in for the paper's four benchmark datasets (FB15K-237, WN18RR,
// YAGO3-10, CoDEx-L), which cannot be downloaded in this offline build.
//
// The generator is designed so that the *shape* properties the paper's
// findings depend on are controllable and match each dataset:
//
//   - scale: entity / relation / triple counts (presets keep the paper's
//     relation counts exactly and scale entities/triples down),
//   - density: triples-per-entity ratio (FB15K-237 ≈ 19, WN18RR ≈ 2.1,
//     YAGO3-10 ≈ 8.8, CoDEx-L ≈ 7.1),
//   - popularity skew: Zipf-distributed entity usage, so ENTITY FREQUENCY /
//     GRAPH DEGREE sampling has a head to exploit and a long tail to avoid,
//   - clustering: a triadic-closure probability that controls the local
//     clustering coefficient profile (Figure 3's dataset ordering),
//   - learnability: entities carry latent types and relations carry
//     (domain, range) type signatures, so KGE models can learn real
//     structure and their rankings are meaningful rather than noise.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/kg"
	"repro/internal/sample"
)

// Config parameterizes one synthetic knowledge graph.
type Config struct {
	// Name labels the dataset (reports, file names).
	Name string
	// NumEntities, NumRelations and NumTriples set the target sizes. Every
	// entity is guaranteed to occur in at least one triple, so NumTriples
	// must be >= NumEntities/2 to be reachable.
	NumEntities  int
	NumRelations int
	NumTriples   int
	// NumTypes is the number of latent entity types (clusters). Relations
	// connect one domain type to one range type.
	NumTypes int
	// EntityZipf is the Zipf exponent of within-type entity popularity
	// (0 = uniform; ≈1 = realistic head-heavy skew).
	EntityZipf float64
	// RelationZipf is the Zipf exponent of relation frequency.
	RelationZipf float64
	// ClosureProb is the probability that a new triple is created by triadic
	// closure (connecting two neighbours of an existing node), which raises
	// the local clustering coefficients.
	ClosureProb float64
	// NoiseProb is the probability that a non-closure triple ignores type
	// signatures entirely (uniform random endpoints).
	NoiseProb float64
	// ValidFrac and TestFrac control the split (see kg.Split); the split
	// always enforces the no-unseen-entities property.
	ValidFrac float64
	TestFrac  float64
	// Seed makes generation deterministic.
	Seed int64
}

// Validate reports the first problem with the configuration, if any.
func (c Config) Validate() error {
	switch {
	case c.NumEntities < 2:
		return fmt.Errorf("synth: need at least 2 entities, got %d", c.NumEntities)
	case c.NumRelations < 1:
		return fmt.Errorf("synth: need at least 1 relation, got %d", c.NumRelations)
	case c.NumTriples < c.NumEntities/2:
		return fmt.Errorf("synth: %d triples cannot cover %d entities", c.NumTriples, c.NumEntities)
	case c.NumTypes < 1:
		return fmt.Errorf("synth: need at least 1 type, got %d", c.NumTypes)
	case c.ClosureProb < 0 || c.ClosureProb > 1:
		return fmt.Errorf("synth: ClosureProb %g outside [0,1]", c.ClosureProb)
	case c.NoiseProb < 0 || c.NoiseProb > 1:
		return fmt.Errorf("synth: NoiseProb %g outside [0,1]", c.NoiseProb)
	}
	return nil
}

// GenerateGraph builds the full synthetic graph (before splitting).
func GenerateGraph(cfg Config) (*kg.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := kg.NewGraph()

	// Intern all vocabulary up front so IDs are dense and counts exact.
	for i := 0; i < cfg.NumEntities; i++ {
		g.Entities.Intern(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < cfg.NumRelations; i++ {
		g.Relations.Intern(fmt.Sprintf("r%d", i))
	}

	w := newWorld(cfg, rng)
	d := &draft{
		triples: make([]kg.Triple, 0, cfg.NumTriples),
		seen:    make([]map[uint64]bool, cfg.NumRelations),
		covered: make([]bool, cfg.NumEntities),
	}
	for r := range d.seen {
		d.seen[r] = make(map[uint64]bool)
	}

	// Phase 1 — coverage: connect every entity at least once, pairing each
	// entity with a popular partner through a type-compatible relation.
	order := rng.Perm(cfg.NumEntities)
	for _, ei := range order {
		if len(d.triples) >= cfg.NumTriples {
			break
		}
		e := kg.EntityID(ei)
		if d.covered[e] {
			continue
		}
		w.addCoverageTriple(d, e, rng)
	}

	// Phase 2 — bulk generation: mixture of type-guided popularity sampling
	// and triadic closure, up to the triple budget.
	maxAttempts := 40 * cfg.NumTriples
	for attempt := 0; len(d.triples) < cfg.NumTriples && attempt < maxAttempts; attempt++ {
		var t kg.Triple
		var ok bool
		if rng.Float64() < cfg.ClosureProb {
			t, ok = w.closureTriple(d.triples, rng)
		}
		if !ok {
			t, ok = w.typedTriple(rng)
		}
		if !ok || t.S == t.O {
			continue
		}
		d.add(t)
	}
	if len(d.triples) < cfg.NumTriples {
		return nil, fmt.Errorf("synth: exhausted attempts at %d/%d triples (graph too constrained)", len(d.triples), cfg.NumTriples)
	}
	g.AddAll(d.triples)
	return g, nil
}

// draft is the graph while it is drawn: its triples in draw order, each
// relation's (subject, object) pairs so far, and which entities some triple
// covers. The kg.Graph is built from it in one AddAll.
type draft struct {
	triples []kg.Triple
	seen    []map[uint64]bool // by relation, keyed S<<32 | O
	covered []bool
}

// add appends t unless it was drawn before and reports whether it did.
func (d *draft) add(t kg.Triple) bool {
	key := uint64(t.S)<<32 | uint64(t.O)
	if d.seen[t.R][key] {
		return false
	}
	d.seen[t.R][key] = true
	d.triples = append(d.triples, t)
	d.covered[t.S], d.covered[t.O] = true, true
	return true
}

// Generate builds the graph and splits it into a Dataset with the
// no-unseen-entities guarantee.
func Generate(cfg Config) (*kg.Dataset, error) {
	g, err := GenerateGraph(cfg)
	if err != nil {
		return nil, err
	}
	return kg.Split(cfg.Name, g, kg.SplitOptions{
		ValidFrac: cfg.ValidFrac,
		TestFrac:  cfg.TestFrac,
		Seed:      cfg.Seed + 1,
		NoUnseen:  true,
	})
}

// world holds the sampling machinery derived from a Config.
type world struct {
	cfg Config

	entType []int                      // entity -> latent type
	byType  [][]kg.EntityID            // type -> entities, popularity-ranked
	entSamp []*sample.Alias            // type -> within-type popularity sampler
	relDom  []int                      // relation -> domain type
	relRng  []int                      // relation -> range type
	relByDR map[[2]int][]kg.RelationID // (domain,range) -> relations
	relSamp *sample.Alias

	adj [][]kg.EntityID // growing undirected adjacency for closure moves
}

func newWorld(cfg Config, rng *rand.Rand) *world {
	w := &world{
		cfg:     cfg,
		entType: make([]int, cfg.NumEntities),
		byType:  make([][]kg.EntityID, cfg.NumTypes),
		relDom:  make([]int, cfg.NumRelations),
		relRng:  make([]int, cfg.NumRelations),
		relByDR: make(map[[2]int][]kg.RelationID),
		adj:     make([][]kg.EntityID, cfg.NumEntities),
	}
	for e := 0; e < cfg.NumEntities; e++ {
		t := rng.Intn(cfg.NumTypes)
		w.entType[e] = t
		w.byType[t] = append(w.byType[t], kg.EntityID(e))
	}
	// Guarantee every type has at least two entities (steal from the
	// largest type) so every relation signature is satisfiable.
	for t := 0; t < cfg.NumTypes; t++ {
		for len(w.byType[t]) < 2 {
			big := 0
			for u := range w.byType {
				if len(w.byType[u]) > len(w.byType[big]) {
					big = u
				}
			}
			if big == t || len(w.byType[big]) <= 2 {
				break
			}
			e := w.byType[big][len(w.byType[big])-1]
			w.byType[big] = w.byType[big][:len(w.byType[big])-1]
			w.byType[t] = append(w.byType[t], e)
			w.entType[e] = t
		}
	}
	w.entSamp = make([]*sample.Alias, cfg.NumTypes)
	for t := 0; t < cfg.NumTypes; t++ {
		weights := zipfWeights(len(w.byType[t]), cfg.EntityZipf)
		a, err := sample.NewAlias(weights)
		if err != nil {
			panic(fmt.Sprintf("synth: internal: %v", err))
		}
		w.entSamp[t] = a
	}
	for r := 0; r < cfg.NumRelations; r++ {
		d, rr := rng.Intn(cfg.NumTypes), rng.Intn(cfg.NumTypes)
		w.relDom[r], w.relRng[r] = d, rr
		key := [2]int{d, rr}
		w.relByDR[key] = append(w.relByDR[key], kg.RelationID(r))
	}
	relWeights := zipfWeights(cfg.NumRelations, cfg.RelationZipf)
	a, err := sample.NewAlias(relWeights)
	if err != nil {
		panic(fmt.Sprintf("synth: internal: %v", err))
	}
	w.relSamp = a
	return w
}

// zipfWeights returns w_i = 1/(i+1)^s for i in [0, n).
func zipfWeights(n int, s float64) []float64 {
	if n == 0 {
		return []float64{1} // avoid empty sampler; callers guarantee n >= 1
	}
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = 1 / math.Pow(float64(i+1), s)
	}
	return ws
}

func (w *world) note(t kg.Triple) {
	w.adj[t.S] = append(w.adj[t.S], t.O)
	w.adj[t.O] = append(w.adj[t.O], t.S)
}

// drawEntity samples an entity of type t by within-type popularity.
func (w *world) drawEntity(t int, rng *rand.Rand) kg.EntityID {
	return w.byType[t][w.entSamp[t].Draw(rng)]
}

// typedTriple draws a relation then type-compatible (or noisy) endpoints.
func (w *world) typedTriple(rng *rand.Rand) (kg.Triple, bool) {
	r := kg.RelationID(w.relSamp.Draw(rng))
	var s, o kg.EntityID
	if rng.Float64() < w.cfg.NoiseProb {
		s = kg.EntityID(rng.Intn(w.cfg.NumEntities))
		o = kg.EntityID(rng.Intn(w.cfg.NumEntities))
	} else {
		s = w.drawEntity(w.relDom[r], rng)
		o = w.drawEntity(w.relRng[r], rng)
	}
	if s == o {
		return kg.Triple{}, false
	}
	t := kg.Triple{S: s, R: r, O: o}
	w.note(t)
	return t, true
}

// closureTriple picks a random wedge a–b–c in the growing graph and closes
// it with a type-compatible relation, creating a triangle.
func (w *world) closureTriple(triples []kg.Triple, rng *rand.Rand) (kg.Triple, bool) {
	if len(triples) == 0 {
		return kg.Triple{}, false
	}
	base := triples[rng.Intn(len(triples))]
	mid := base.O
	nbs := w.adj[mid]
	if len(nbs) < 2 {
		return kg.Triple{}, false
	}
	a := base.S
	c := nbs[rng.Intn(len(nbs))]
	if c == a || c == mid {
		return kg.Triple{}, false
	}
	r, ok := w.compatibleRelation(a, c, rng)
	if !ok {
		return kg.Triple{}, false
	}
	t := kg.Triple{S: a, R: r, O: c}
	w.note(t)
	return t, true
}

// compatibleRelation returns a relation whose (domain, range) signature
// matches the types of (s, o), falling back to the reverse orientation and
// then to any relation.
func (w *world) compatibleRelation(s, o kg.EntityID, rng *rand.Rand) (kg.RelationID, bool) {
	if rels, ok := w.relByDR[[2]int{w.entType[s], w.entType[o]}]; ok && len(rels) > 0 {
		return rels[rng.Intn(len(rels))], true
	}
	if rels, ok := w.relByDR[[2]int{w.entType[o], w.entType[s]}]; ok && len(rels) > 0 {
		// Reverse orientation also forms a triangle in the undirected view.
		return rels[rng.Intn(len(rels))], true
	}
	return kg.RelationID(w.relSamp.Draw(rng)), true
}

// addCoverageTriple connects entity e to a popular partner via a relation
// compatible with e's type, guaranteeing e occurs in the graph.
func (w *world) addCoverageTriple(d *draft, e kg.EntityID, rng *rand.Rand) {
	et := w.entType[e]
	for attempt := 0; attempt < 64; attempt++ {
		r := kg.RelationID(w.relSamp.Draw(rng))
		var t kg.Triple
		switch {
		case w.relDom[r] == et:
			o := w.drawEntity(w.relRng[r], rng)
			t = kg.Triple{S: e, R: r, O: o}
		case w.relRng[r] == et:
			s := w.drawEntity(w.relDom[r], rng)
			t = kg.Triple{S: s, R: r, O: e}
		default:
			continue
		}
		if t.S == t.O {
			continue
		}
		if d.add(t) {
			w.note(t)
			return
		}
	}
	// Fall back: connect to any other entity with any relation.
	for {
		o := kg.EntityID(rng.Intn(w.cfg.NumEntities))
		if o == e {
			continue
		}
		r := kg.RelationID(w.relSamp.Draw(rng))
		t := kg.Triple{S: e, R: r, O: o}
		if d.add(t) {
			w.note(t)
			return
		}
	}
}
