package train

import (
	"math/rand"

	"repro/internal/kg"
)

// NegativeSampler produces corrupted triples for contrastive training: given
// a positive (s, r, o) it replaces the subject or the object, each with
// probability 0.5 unless FitBernoulli has been called, with a random entity.
type NegativeSampler struct {
	// NumEntities is the entity vocabulary size to draw replacements from.
	NumEntities int
	// bernoulli holds per-relation subject-corruption probabilities when
	// FitBernoulli has been called; it overrides the even side choice.
	bernoulli map[kg.RelationID]float64
}

// FitBernoulli computes per-relation corruption-side probabilities from g
// using the Bernoulli scheme of Wang et al. (2014): for relation r with
// tph = mean tails per head and hpt = mean heads per tail, the subject is
// corrupted with probability tph / (tph + hpt). One-to-many relations thus
// mostly corrupt subjects and many-to-one relations mostly corrupt objects,
// which reduces false negatives.
func (ns *NegativeSampler) FitBernoulli(g *kg.Graph) {
	ns.bernoulli = make(map[kg.RelationID]float64)
	for _, r := range g.RelationIDs() {
		heads := len(g.SideEntities(r, kg.SubjectSide))
		tails := len(g.SideEntities(r, kg.ObjectSide))
		triples := len(g.RelationTriples(r))
		if heads == 0 || tails == 0 || triples == 0 {
			continue
		}
		tph := float64(triples) / float64(heads)
		hpt := float64(triples) / float64(tails)
		ns.bernoulli[r] = tph / (tph + hpt)
	}
}

// Corrupt returns one corruption of t: it draws the side, then entities
// until the corruption differs from t.
func (ns *NegativeSampler) Corrupt(t kg.Triple, rng *rand.Rand) kg.Triple {
	p := 0.5
	if bp, ok := ns.bernoulli[t.R]; ok {
		p = bp
	}
	side := kg.ObjectSide
	if rng.Float64() < p {
		side = kg.SubjectSide
	}
	for {
		e := kg.EntityID(rng.Intn(ns.NumEntities))
		if c := t.Corrupted(side, e); c != t {
			return c
		}
	}
}

// CorruptN fills dst with n corruptions of t and returns it.
func (ns *NegativeSampler) CorruptN(dst []kg.Triple, t kg.Triple, n int, rng *rand.Rand) []kg.Triple {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, ns.Corrupt(t, rng))
	}
	return dst
}
