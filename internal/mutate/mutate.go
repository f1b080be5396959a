// Package mutate is the live-ingestion layer: batched ADD/DELETE mutations
// against a serving knowledge graph, applied atomically with per-batch
// provenance (source, sequence number, caller-supplied timestamp), durably
// recorded in an fsync'd CRC-framed mutation log, and propagated exactly into
// the two graphs discovery and ranking read:
//
//   - the kg.Graph triples and their index (kept exact by Add and Delete),
//   - the (s, r) filter adjacency used by eval.Ranker for filtered ranking
//     (the train ∪ valid ∪ test union graph, co-maintained here).
//
// Each applied batch reports the triples it net-inserted and net-removed. A
// relation's sweep in core.DiscoverFacts reads only that relation's triples
// and the pools and weights the strategy gives it, so from those triples
// DirtyRelations derives the relations whose sweep output could differ on the
// mutated graph. IncrementalDiscover re-sweeps only those and splices the rest
// from the prior run's records, byte-identical to a from-scratch discovery on
// the mutated graph.
package mutate

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
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

	log *Log
	seq int64
}

// NewState wraps a dataset's mutable train graph. filter (train∪valid∪test)
// may be nil; frozen (valid∪test) may be nil when filter is.
func NewState(train, filter, frozen *kg.Graph) *State {
	return &State{
		Graph:  train,
		Filter: filter,
		frozen: frozen,
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
// to drive exact invalidation downstream.
type Applied struct {
	Seq     int64
	Added   int // ops that inserted a triple not previously present
	Deleted int // ops that removed a present triple

	// NetRels are the relations with a net triple change, in ascending ID
	// order: some triple of theirs is present after the batch but not
	// before, or vice versa. A transient (add-then-delete inside one batch)
	// nets out to nothing. The candidate pools, pool counts, membership set
	// and (s,r) adjacency of every other relation are bit-identical to
	// before the batch.
	NetRels []kg.RelationID
	// Inserted and Removed are the triples present after the batch but not
	// before, and before but not after, in the order the batch first
	// touched them.
	Inserted []kg.Triple
	Removed  []kg.Triple
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
	var touched []kg.Triple
	for i, t := range resolved {
		if _, seen := initial[t]; !seen {
			initial[t] = s.Graph.Contains(t)
			touched = append(touched, t)
		}
		switch b.Ops[i].Kind {
		case OpAdd:
			if !s.Graph.Add(t) {
				continue // already present: idempotent no-op
			}
			ap.Added++
			if s.Filter != nil {
				s.Filter.Add(t)
			}
		case OpDelete:
			if !s.Graph.Delete(t) {
				continue // already absent: idempotent no-op
			}
			ap.Deleted++
			if s.Filter != nil && (s.frozen == nil || !s.frozen.Contains(t)) {
				s.Filter.Delete(t)
			}
		}
	}
	s.seq = b.Seq

	for _, t := range touched {
		switch was := initial[t]; {
		case was == s.Graph.Contains(t):
			continue
		case was:
			ap.Removed = append(ap.Removed, t)
		default:
			ap.Inserted = append(ap.Inserted, t)
		}
		ap.NetRels = append(ap.NetRels, t.R)
	}
	slices.Sort(ap.NetRels)
	ap.NetRels = slices.Compact(ap.NetRels)
	return ap, nil
}

// DirtyRelations returns the relations whose discovery output under the
// named strategy could differ between the graph before batches and the graph
// now, in ascending ID order. batches must be every batch applied since that
// baseline, in the order they were applied. Re-sweeping only these relations
// and splicing the rest from a baseline run reproduces a from-scratch sweep
// byte for byte.
//
// Algorithm 1 sweeps a relation from two inputs: its own triples, and the
// candidate pools and weights line 7 gives it. The batches' net change is
// the triples whose presence now differs from before the first batch that
// changed them (which inserted them if and only if they were absent). A
// relation is dirty when the net change holds one of its triples, or when
// the strategy's Weights for it differ between the current graph and a
// clone with the net change reverted, each graph's statistic computed once.
// Strategies whose weights read only the relation's own triples
// (Strategy.RelationLocal) skip the clone. An unknown strategy name dirties
// every relation.
func (s *State) DirtyRelations(strategy string, batches ...Applied) []kg.RelationID {
	n := 0
	for _, b := range batches {
		n += len(b.Inserted) + len(b.Removed)
	}
	seen := make(map[kg.Triple]bool, n)
	changed := make([]kg.Triple, 0, n)
	for _, b := range batches {
		for i, t := range slices.Concat(b.Inserted, b.Removed) {
			if !seen[t] && s.Graph.Contains(t) == (i < len(b.Inserted)) {
				changed = append(changed, t)
			}
			seen[t] = true
		}
	}
	if len(changed) == 0 {
		// No triple net-changed: the graph, and everything derived from it,
		// is what it was. Nothing is dirty, for any strategy.
		return nil
	}
	st, err := core.StrategyByName(strategy)
	if err != nil {
		return s.Graph.RelationIDs()
	}
	var before *kg.Graph
	var nowStat, beforeStat []float64
	if !st.RelationLocal() {
		before = s.Graph.Clone()
		for _, t := range changed {
			if s.Graph.Contains(t) {
				before.Delete(t)
			} else {
				before.Add(t)
			}
		}
		nowStat, beforeStat = st.Statistic(s.Graph), st.Statistic(before)
	}
	out := make([]kg.RelationID, 0, len(changed))
	for _, r := range s.Graph.RelationIDs() {
		net := slices.ContainsFunc(changed, func(t kg.Triple) bool { return t.R == r })
		if net || before != nil && !sameWeights(st, r, s.Graph, nowStat, before, beforeStat) {
			out = append(out, r)
		}
	}
	return out
}

// sameWeights reports whether st gives relation r the same pools and the
// same weights on graphs a and b, whose statistics are aStat and bStat.
func sameWeights(st core.Strategy, r kg.RelationID, a *kg.Graph, aStat []float64, b *kg.Graph, bStat []float64) bool {
	as, asw, ao, aow := st.Weights(a, r, aStat)
	bs, bsw, bo, bow := st.Weights(b, r, bStat)
	return slices.Equal(as, bs) && slices.Equal(asw, bsw) &&
		slices.Equal(ao, bo) && slices.Equal(aow, bow)
}
