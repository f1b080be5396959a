package train

import (
	"math/rand"

	"repro/internal/kg"
)

// NegativeSampler produces corrupted triples for contrastive training: given
// a positive (s, r, o) it replaces the subject or the object, each with
// probability 0.5, with a random entity.
type NegativeSampler struct {
	// NumEntities is the entity vocabulary size to draw replacements from.
	NumEntities int
}

// Corrupt returns one corruption of t: it draws the side, then entities
// until the corruption differs from t.
func (ns *NegativeSampler) Corrupt(t kg.Triple, rng *rand.Rand) kg.Triple {
	side := kg.ObjectSide
	if rng.Float64() < 0.5 {
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
