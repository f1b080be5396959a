// Package mutate is the live-ingestion layer: batched ADD/DELETE mutations
// against a serving knowledge graph, applied atomically with per-batch
// provenance (source, sequence number, caller-supplied timestamp), durably
// recorded in an fsync'd CRC-framed mutation log, and propagated exactly —
// not approximately — into every derived artifact that discovery and ranking
// read:
//
//   - the kg.Graph triples and their index (kept exact by Add and Delete),
//   - the undirected projection's neighbour lists, and with each mutation
//     the nodes whose degree/triangle/clustering statistics it may move
//     (via graphstats.Live local delta updates),
//   - the (s, r) filter adjacency used by eval.Ranker for filtered ranking
//     (the train ∪ valid ∪ test union graph, co-maintained here).
//
// Because each relation's sweep in core.DiscoverFacts is a pure function of
// that relation's candidate pools and the strategy's node statistics, a batch
// also yields a per-strategy *dirty relation set*: the relations whose sweep
// output could differ on the mutated graph. IncrementalDiscover re-sweeps
// only those and splices the rest from the prior run's records, byte-identical
// to a from-scratch discovery on the mutated graph.
package mutate

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/graphstats"
	"repro/internal/kg"
)

// OpKind discriminates mutation operations.
type OpKind string

const (
	OpAdd    OpKind = "add"
	OpDelete OpKind = "delete"
)

// Op is one triple-level mutation, addressed by names so batches are
// meaningful independent of any particular interning order.
type Op struct {
	Kind OpKind `json:"op"`
	S    string `json:"s"`
	R    string `json:"r"`
	O    string `json:"o"`
}

// Batch is the atomic unit of mutation: it either applies in full (after
// validating every op) or not at all. Seq must be exactly one past the last
// applied batch — a gap means the caller and server disagree about history.
// Source and Timestamp are caller-supplied provenance, recorded verbatim in
// the mutation log; the server deliberately never stamps its own clock so
// logs replay bit-identically.
type Batch struct {
	Seq       int64  `json:"seq"`
	Source    string `json:"source,omitempty"`
	Timestamp string `json:"timestamp,omitempty"`
	Ops       []Op   `json:"ops"`
}

// SequenceGapError reports a batch whose Seq is not the next expected value.
type SequenceGapError struct {
	Want int64 // the sequence number the state expects next
	Got  int64
}

func (e *SequenceGapError) Error() string {
	return fmt.Sprintf("mutate: sequence gap: expected batch seq %d, got %d", e.Want, e.Got)
}

// ValidationError reports a batch rejected before any op was applied.
type ValidationError struct {
	Index  int // offending op index, -1 for batch-level problems
	Reason string
}

func (e *ValidationError) Error() string {
	if e.Index < 0 {
		return "mutate: invalid batch: " + e.Reason
	}
	return fmt.Sprintf("mutate: invalid op %d: %s", e.Index, e.Reason)
}

// ErrEmptyBatch rejects batches with no ops; an empty batch has no meaning
// but would still consume a sequence number.
var ErrEmptyBatch = errors.New("mutate: batch has no ops")

// State owns the mutable graph artifacts. It is not safe for concurrent use;
// the serving layer serializes writers and excludes readers during Apply.
type State struct {
	// Graph is the mutable split (train: the graph discovery samples from).
	Graph *kg.Graph
	// Filter is the train ∪ valid ∪ test union used for filtered ranking;
	// nil when the caller does not maintain one.
	Filter *kg.Graph
	// frozen holds the valid ∪ test triples: a train delete must not remove
	// a filter triple that another split still asserts.
	frozen *kg.Graph

	live *graphstats.Live
	log  *Log
	seq  int64
}

// NewState wraps a dataset's mutable train graph. filter (train∪valid∪test)
// may be nil; frozen (valid∪test) may be nil when filter is.
func NewState(train, filter, frozen *kg.Graph) *State {
	return &State{
		Graph:  train,
		Filter: filter,
		frozen: frozen,
		live:   graphstats.NewLive(train),
	}
}

// AttachLog makes the state durable: every subsequently applied batch is
// appended (and fsync'd) to log before it mutates any in-memory structure.
func (s *State) AttachLog(log *Log) { s.log = log }

// Seq returns the sequence number of the last applied batch (0 initially).
func (s *State) Seq() int64 { return s.seq }

// Replay applies batches recovered from a mutation log. It is Apply without
// the log append (the batches are already durable).
func (s *State) Replay(batches []Batch) error {
	for _, b := range batches {
		if _, err := s.apply(b, false); err != nil {
			return fmt.Errorf("mutate: replaying batch seq %d: %w", b.Seq, err)
		}
	}
	return nil
}

// Applied reports what one batch actually changed, in terms precise enough
// to drive exact invalidation downstream. All slices are sorted.
type Applied struct {
	Seq     int64
	Added   int // ops that inserted a triple not previously present
	Deleted int // ops that removed a present triple

	// NetRels are the relations with a net triple change: some triple of
	// theirs is present after the batch but not before, or vice versa. A
	// transient (add-then-delete inside one batch) nets out to nothing.
	// The candidate pools, pool counts, membership set and (s,r) adjacency
	// of every other relation are bit-identical to before the batch.
	NetRels []kg.RelationID
	// DegreeEntities are the entities whose directed degree (subject count
	// plus object count) net-changed — exactly the entities whose
	// graph_degree / inverse_degree / mixed_exploration statistic moved.
	DegreeEntities []kg.EntityID
	// ClusterEntities is a sound superset of the entities whose undirected
	// degree, triangle count T(v), or local clustering c(v) changed.
	ClusterEntities []kg.EntityID
	// SquareEntities is a sound superset of the entities whose square
	// clustering c₄(v) changed.
	SquareEntities []kg.EntityID
}

// Effective reports whether the batch changed the graph at all. A batch of
// no-ops (or of transients that net out) leaves every derived artifact
// bit-identical, so nothing needs invalidation.
func (a Applied) Effective() bool { return len(a.NetRels) > 0 }

// Apply validates, durably logs, and applies one batch. On any validation
// error (unknown entity or relation name, bad op kind, sequence gap, empty
// batch) the state is untouched. Entity and relation names must already be
// interned: a trained model has no embedding row for a novel entity, so new
// vocabulary is a model-retraining event, not a mutation.
func (s *State) Apply(b Batch) (Applied, error) {
	return s.apply(b, true)
}

func (s *State) apply(b Batch, logIt bool) (Applied, error) {
	if b.Seq != s.seq+1 {
		return Applied{}, &SequenceGapError{Want: s.seq + 1, Got: b.Seq}
	}
	if len(b.Ops) == 0 {
		return Applied{}, ErrEmptyBatch
	}
	resolved := make([]kg.Triple, len(b.Ops))
	for i, op := range b.Ops {
		if op.Kind != OpAdd && op.Kind != OpDelete {
			return Applied{}, &ValidationError{Index: i, Reason: fmt.Sprintf("unknown op kind %q", op.Kind)}
		}
		sid, ok := s.Graph.Entities.Lookup(op.S)
		if !ok {
			return Applied{}, &ValidationError{Index: i, Reason: fmt.Sprintf("unknown entity %q (new vocabulary requires retraining)", op.S)}
		}
		oid, ok := s.Graph.Entities.Lookup(op.O)
		if !ok {
			return Applied{}, &ValidationError{Index: i, Reason: fmt.Sprintf("unknown entity %q (new vocabulary requires retraining)", op.O)}
		}
		rid, ok := s.Graph.Relations.Lookup(op.R)
		if !ok {
			return Applied{}, &ValidationError{Index: i, Reason: fmt.Sprintf("unknown relation %q", op.R)}
		}
		resolved[i] = kg.Triple{S: kg.EntityID(sid), R: kg.RelationID(rid), O: kg.EntityID(oid)}
	}
	if logIt && s.log != nil {
		if err := s.log.Append(b); err != nil {
			return Applied{}, fmt.Errorf("mutate: mutation log append: %w", err)
		}
	}

	ap := Applied{Seq: b.Seq}
	initial := make(map[kg.Triple]bool) // presence before the batch, first touch wins
	cluster := make(map[kg.EntityID]struct{})
	square := make(map[kg.EntityID]struct{})
	for i, t := range resolved {
		if _, seen := initial[t]; !seen {
			initial[t] = s.Graph.Contains(t)
		}
		var delta graphstats.EdgeDelta
		switch b.Ops[i].Kind {
		case OpAdd:
			if !s.Graph.Add(t) {
				continue // already present: idempotent no-op
			}
			ap.Added++
			delta = s.live.AddTriple(t.S, t.O)
			if s.Filter != nil {
				s.Filter.Add(t)
			}
		case OpDelete:
			if !s.Graph.Delete(t) {
				continue // already absent: idempotent no-op
			}
			ap.Deleted++
			delta = s.live.RemoveTriple(t.S, t.O)
			if s.Filter != nil && (s.frozen == nil || !s.frozen.Contains(t)) {
				s.Filter.Delete(t)
			}
		}
		if delta.Structural {
			for _, e := range delta.Touched {
				cluster[e] = struct{}{}
			}
			for _, e := range delta.Square {
				square[e] = struct{}{}
			}
		}
	}
	s.seq = b.Seq

	netRels := make(map[kg.RelationID]struct{})
	degDelta := make(map[kg.EntityID]int64)
	for t, was := range initial {
		if s.Graph.Contains(t) == was {
			continue
		}
		netRels[t.R] = struct{}{}
		if was {
			degDelta[t.S]--
			degDelta[t.O]--
		} else {
			degDelta[t.S]++
			degDelta[t.O]++
		}
	}
	for r := range netRels {
		ap.NetRels = append(ap.NetRels, r)
	}
	sort.Slice(ap.NetRels, func(i, j int) bool { return ap.NetRels[i] < ap.NetRels[j] })
	for e, d := range degDelta {
		if d != 0 {
			ap.DegreeEntities = append(ap.DegreeEntities, e)
		}
	}
	sort.Slice(ap.DegreeEntities, func(i, j int) bool { return ap.DegreeEntities[i] < ap.DegreeEntities[j] })
	ap.ClusterEntities = sortedEntitySet(cluster)
	ap.SquareEntities = sortedEntitySet(square)
	return ap, nil
}

func sortedEntitySet(m map[kg.EntityID]struct{}) []kg.EntityID {
	if len(m) == 0 {
		return nil
	}
	out := make([]kg.EntityID, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DirtyRelations returns the relations whose discovery output under the
// named strategy could differ on the post-batch graph, merged across the
// given batches, in ascending ID order. The set is exact for the pool-driven
// strategies and for the degree-statistic strategies, and a sound superset
// for the clustering strategies (whose affected sets are collected per
// structural edge transition, so a transient can over-dirty but never
// under-dirty). Re-sweeping only these relations and splicing the rest from
// a pre-batch run reproduces a from-scratch sweep byte for byte.
//
// Strategy sensitivity, derived from how core computes weights:
//
//   - uniform_random, entity_frequency: weights read only the relation's own
//     candidate pools and side counts → NetRels.
//   - graph_degree, inverse_degree: per-entity statistics deg(e) and
//     1/(1+deg(e)) → NetRels plus relations whose pools contain an entity
//     with a net degree change.
//   - cluster_triangles, cluster_coefficient: statistics T(v) and c(v) on
//     the undirected projection → NetRels plus relations whose pools contain
//     a ClusterEntities member.
//   - cluster_squares: c₄(v) → NetRels plus relations whose pools contain a
//     SquareEntities member.
//   - mixed_exploration: normalizes both degree statistics by their global
//     mass, so one net degree change anywhere moves every entity's weight →
//     all relations (when any degree changed; otherwise NetRels).
//   - anything else (unknown strategies): all relations, the trivially sound
//     answer.
//
// The empty strategy name "" asks for the union over all known strategies —
// what a cache that serves every strategy must consider dirty.
func (s *State) DirtyRelations(strategy string, batches ...Applied) []kg.RelationID {
	net := make(map[kg.RelationID]struct{})
	degreeChanged := false
	for _, b := range batches {
		for _, r := range b.NetRels {
			net[r] = struct{}{}
		}
		if len(b.DegreeEntities) > 0 {
			degreeChanged = true
		}
	}
	if len(net) == 0 {
		// No triple net-changed, so the graph — and every statistic derived
		// from it — is bit-identical to before: nothing is dirty, for any
		// strategy. (Transients may have populated the entity supersets, but
		// their effects were undone.)
		return nil
	}

	ents := make(map[kg.EntityID]struct{})
	collect := func(pick func(Applied) []kg.EntityID) {
		for _, b := range batches {
			for _, e := range pick(b) {
				ents[e] = struct{}{}
			}
		}
	}
	allRels := false
	switch strategy {
	case "uniform_random", "entity_frequency":
		// pool-only: nothing beyond NetRels
	case "graph_degree", "inverse_degree":
		collect(func(b Applied) []kg.EntityID { return b.DegreeEntities })
	case "cluster_triangles", "cluster_coefficient":
		collect(func(b Applied) []kg.EntityID { return b.ClusterEntities })
	case "cluster_squares":
		collect(func(b Applied) []kg.EntityID { return b.SquareEntities })
	case "mixed_exploration":
		allRels = degreeChanged
	case "":
		// Union over all known strategies. mixed_exploration's global
		// normalization dominates whenever any degree moved; otherwise the
		// graph may still have been rewired degree-preservingly, so the
		// cluster/square supersets remain necessary.
		if degreeChanged {
			allRels = true
		} else {
			collect(func(b Applied) []kg.EntityID { return b.ClusterEntities })
			collect(func(b Applied) []kg.EntityID { return b.SquareEntities })
		}
	default:
		// Unknown strategy: no sensitivity model, so every relation is
		// suspect. Re-sweeping everything is trivially output-identical.
		allRels = true
	}

	if allRels {
		return s.Graph.RelationIDs()
	}
	out := make([]kg.RelationID, 0, len(net))
	for _, r := range s.Graph.RelationIDs() {
		if _, dirty := net[r]; dirty {
			out = append(out, r)
			continue
		}
		if poolContainsAny(s.Graph, r, ents) {
			out = append(out, r)
		}
	}
	return out
}

// poolContainsAny reports whether any entity of ents appears in relation r's
// subject or object candidate pool.
func poolContainsAny(g *kg.Graph, r kg.RelationID, ents map[kg.EntityID]struct{}) bool {
	for e := range ents {
		if g.SideCount(r, kg.SubjectSide, e) > 0 || g.SideCount(r, kg.ObjectSide, e) > 0 {
			return true
		}
	}
	return false
}
