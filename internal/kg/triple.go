// Package kg provides the knowledge-graph substrate used throughout the
// repository: identifier spaces for entities and relations, the Triple type,
// an indexed in-memory triple store (Graph), dataset splits, and TSV I/O in
// the common (subject \t relation \t object) format.
//
// Everything downstream — graph analytics, KGE training, and the fact
// discovery algorithm — consumes these types. A knowledge graph G ⊆ E×R×E is
// a set of facts (s, r, o) with s, o ∈ E entities and r ∈ R relations.
package kg

import (
	"cmp"
	"fmt"
	"slices"
)

// EntityID identifies an entity within a Dict. IDs are dense, starting at 0,
// which lets downstream code use plain slices as entity-indexed tables.
type EntityID int32

// RelationID identifies a relation type within a Dict. IDs are dense,
// starting at 0.
type RelationID int32

// Triple is a single fact (s, r, o): a directed, labeled edge from subject s
// to object o with relation type r. Triple is comparable and therefore
// usable directly as a map key.
type Triple struct {
	S EntityID
	R RelationID
	O EntityID
}

// String renders the triple using raw IDs; use Graph.FormatTriple for names.
func (t Triple) String() string {
	return fmt.Sprintf("(%d, %d, %d)", t.S, t.R, t.O)
}

// Corrupted returns a copy of t with the object replaced (side == ObjectSide)
// or the subject replaced (side == SubjectSide).
func (t Triple) Corrupted(side Side, e EntityID) Triple {
	switch side {
	case SubjectSide:
		t.S = e
	case ObjectSide:
		t.O = e
	}
	return t
}

// Side distinguishes the subject and object positions of a triple. Several
// sampling strategies in the paper (UNIFORM RANDOM, ENTITY FREQUENCY) weight
// the two sides independently.
type Side uint8

const (
	// SubjectSide selects the subject position of a triple.
	SubjectSide Side = iota
	// ObjectSide selects the object position of a triple.
	ObjectSide
)

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case SubjectSide:
		return "subject"
	case ObjectSide:
		return "object"
	default:
		return fmt.Sprintf("Side(%d)", uint8(s))
	}
}

// SortTriples orders triples lexicographically by (S, R, O). It is used to
// produce deterministic output files and canonical test fixtures.
func SortTriples(ts []Triple) {
	slices.SortFunc(ts, func(a, b Triple) int {
		return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.R, b.R), cmp.Compare(a.O, b.O))
	})
}
