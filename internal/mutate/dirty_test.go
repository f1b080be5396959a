package mutate

import (
	"cmp"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/kge"
)

// dirtyOpts are the discovery options of the dirty-set tests: filtered
// ranking, so the relation's (s, r) adjacency is read too, and a candidate
// budget well under the tiny preset's meshes, so the sweep samples and its
// output moves with the weights.
var dirtyOpts = core.Options{TopN: 30, MaxCandidates: 25, Seed: 11, RankFiltered: true}

// relationOutputs runs single-relation discovery for every relation of g
// under every named strategy: out[name][r] is relation r's facts.
func relationOutputs(t *testing.T, m kge.Model, g *kg.Graph, names []string) map[string]map[kg.RelationID][]core.Fact {
	t.Helper()
	out := make(map[string]map[kg.RelationID][]core.Fact, len(names))
	for _, name := range names {
		out[name] = make(map[kg.RelationID][]core.Fact)
		for _, r := range g.RelationIDs() {
			strategy, err := core.StrategyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := dirtyOpts
			opts.Relations = []kg.RelationID{r}
			res, err := core.DiscoverFacts(context.Background(), m, g, strategy, opts)
			if err != nil {
				t.Fatalf("%s, relation %d: %v", name, r, err)
			}
			out[name][r] = res.Facts
		}
	}
	return out
}

// Sequence shapes. A broad sequence holds every op shape the dirty set must
// account for; the two narrow ones hold few, so that a relation whose
// weights only they move is not dirty for another reason as well.
const (
	broad   = iota
	crossed // self-loops that move between relations across two batches
	deletes // one delete per batch only
)

// nameOp addresses t by name, as a client would.
func nameOp(g *kg.Graph, kind OpKind, t kg.Triple) Op {
	return Op{Kind: kind, S: g.Entities.Name(int32(t.S)), R: g.Relations.Name(int32(t.R)), O: g.Entities.Name(int32(t.O))}
}

// dirtySequence builds a seeded sequence of batches against g (the
// pre-sequence train graph) and frozen (valid ∪ test). Its ops stay inside two
// relations, rA and rB, so every other relation's triples are untouched and
// only a moved weight can change its output. The ops, by shape:
//
//   - deletes, broad: a delete of a random rA triple;
//   - broad: a delete of an rA triple that valid or test also holds;
//   - broad: an add of an rA fact the pre-sequence sweep discovered, so rA's
//     output changes through its triples even where no weight moves;
//   - broad: a self-loop on an entity of rA's subject pool;
//   - broad: a parallel edge, an rA (s, o) pair added under rB, which moves
//     degrees but not the undirected projection;
//   - broad: a transient inside the batch (add then delete a novel rA
//     triple) and a delete-then-re-add of an existing one;
//   - broad: from the second batch on, a transient across batches: the
//     previous batch's parallel edge is deleted and its subject gains a
//     novel rA edge.
//
// A broad or deletes sequence has 1–3 batches; crossed is crossedSequence.
func dirtySequence(g, frozen *kg.Graph, facts map[kg.RelationID][]core.Fact, shape int, seed int64) []Batch {
	rng := rand.New(rand.NewSource(seed))
	cur := g.Clone()
	rels := g.RelationIDs()
	rA := rels[rng.Intn(len(rels))]
	rB := rA
	for rB == rA {
		rB = rels[rng.Intn(len(rels))]
	}
	if shape == crossed {
		return crossedSequence(g, rA, rB)
	}
	var overlap []kg.Triple
	for _, t := range g.RelationTriples(rA) {
		if frozen.Contains(t) {
			overlap = append(overlap, t)
		}
	}
	randomTriple := func() kg.Triple { ts := cur.RelationTriples(rA); return ts[rng.Intn(len(ts))] }
	novel := func(s kg.EntityID) kg.Triple {
		for {
			t := kg.Triple{S: s, R: rA, O: kg.EntityID(rng.Intn(g.NumEntities()))}
			if t.O != s && !cur.Contains(t) {
				return t
			}
		}
	}

	n := 1 + rng.Intn(3)
	batches := make([]Batch, 0, n)
	var lastParallel *kg.Triple
	for i := 0; i < n; i++ {
		var ops []Op
		emit := func(kind OpKind, t kg.Triple) {
			ops = append(ops, nameOp(g, kind, t))
			if kind == OpAdd {
				cur.Add(t)
			} else {
				cur.Delete(t)
			}
		}
		emit(OpDelete, randomTriple())
		if shape == deletes {
			batches = append(batches, Batch{Seq: int64(i + 1), Source: "dirty-test", Ops: ops})
			continue
		}
		if len(overlap) > 0 {
			emit(OpDelete, overlap[rng.Intn(len(overlap))])
		}
		if fs := facts[rA]; len(fs) > 0 {
			emit(OpAdd, fs[rng.Intn(len(fs))].Triple)
		}
		subs := cur.SideEntities(rA, kg.SubjectSide)
		e := subs[rng.Intn(len(subs))]
		emit(OpAdd, kg.Triple{S: e, R: rA, O: e})

		base := randomTriple()
		par := kg.Triple{S: base.S, R: rB, O: base.O}
		parAdded := !cur.Contains(par)
		if parAdded {
			emit(OpAdd, par)
		}

		tr := novel(kg.EntityID(rng.Intn(g.NumEntities())))
		emit(OpAdd, tr)
		emit(OpDelete, tr)
		ex := randomTriple()
		emit(OpDelete, ex)
		emit(OpAdd, ex)

		if lastParallel != nil {
			emit(OpDelete, *lastParallel)
			emit(OpAdd, novel(lastParallel.S))
		}
		lastParallel = nil
		if parAdded {
			lastParallel = &par
		}
		batches = append(batches, Batch{Seq: int64(i + 1), Source: "dirty-test", Ops: ops})
	}
	return batches
}

// crossedSequence is two batches. The first adds self-loops (a, rB, a) on
// three of rA's best-connected subjects; the second deletes them again and
// adds (a, rA, a) instead. Each a's degree is then the same after either
// batch, and only reverting the batches last first recovers the baseline's.
// No other entity's degree moves, and self-loops stay out of the undirected
// projection.
func crossedSequence(g *kg.Graph, rA, rB kg.RelationID) []Batch {
	subs := slices.Clone(g.SideEntities(rA, kg.SubjectSide))
	slices.SortStableFunc(subs, func(x, y kg.EntityID) int { return cmp.Compare(g.Degree(y), g.Degree(x)) })
	first := Batch{Seq: 1, Source: "dirty-test"}
	second := Batch{Seq: 2, Source: "dirty-test"}
	for _, a := range subs {
		from, to := kg.Triple{S: a, R: rB, O: a}, kg.Triple{S: a, R: rA, O: a}
		if g.Contains(from) || g.Contains(to) {
			continue
		}
		first.Ops = append(first.Ops, nameOp(g, OpAdd, from))
		second.Ops = append(second.Ops, nameOp(g, OpDelete, from), nameOp(g, OpAdd, to))
		if len(first.Ops) == 3 {
			break
		}
	}
	return []Batch{first, second}
}

// TestDirtyRelationsCoverOutputChanges holds DirtyRelations to what
// IncrementalDiscover needs of it: after a sequence of batches, every
// relation whose single-relation discovery output differs between the
// pre-sequence and post-sequence graphs is dirty, for every strategy. For
// the two strategies whose weights read only the relation's own triples the
// dirty set is exactly the relations whose triples differ between the two
// graphs: a triple one batch adds and a later one removes dirties nothing.
func TestDirtyRelationsCoverOutputChanges(t *testing.T) {
	ds, m := testModel(t)
	names := append(core.StrategyNames(), core.ExtensionStrategyNames()...)
	for seed := int64(1); seed <= 24; seed++ {
		shape := int(seed % 3)
		d := cloneDataset(ds)
		frozen := kg.Merge(d.Valid, d.Test)
		// Give train one valid and one test triple per relation, so deletes of triples
		// another split holds have something to hit.
		for _, g := range []*kg.Graph{d.Valid, d.Test} {
			for _, r := range g.RelationIDs() {
				d.Train.Add(g.RelationTriples(r)[0])
			}
		}
		before := d.Train.Clone()
		pre := relationOutputs(t, m, before, names)

		st := NewState(d.Train, kg.Merge(d.Train, d.Valid, d.Test), frozen)
		var applied []Applied
		for _, b := range dirtySequence(before, frozen, pre["uniform_random"], shape, seed) {
			ap, err := st.Apply(b)
			if err != nil {
				t.Fatalf("seed %d: apply batch %d: %v", seed, b.Seq, err)
			}
			applied = append(applied, ap)
		}
		post := relationOutputs(t, m, d.Train, names)

		// The relations whose triples differ between the two graphs.
		var wantNet []kg.RelationID
		for _, r := range d.Train.RelationIDs() {
			was, now := before.RelationTriples(r), d.Train.RelationTriples(r)
			same := len(was) == len(now)
			for _, t := range was {
				same = same && d.Train.Contains(t)
			}
			if !same {
				wantNet = append(wantNet, r)
			}
		}

		changed := 0
		for _, name := range names {
			dirty := make(map[kg.RelationID]bool)
			got := st.DirtyRelations(name, applied...)
			for _, r := range got {
				dirty[r] = true
			}
			for r, facts := range post[name] {
				if !reflect.DeepEqual(pre[name][r], facts) {
					changed++
					if !dirty[r] {
						t.Errorf("seed %d, %s: relation %d's output changed but it is not dirty (dirty %v)", seed, name, r, got)
					}
				}
			}
			switch name {
			case "uniform_random", "entity_frequency":
				if !reflect.DeepEqual(got, wantNet) {
					t.Errorf("seed %d, %s: dirty %v, want the relations whose triples changed %v", seed, name, got, wantNet)
				}
			}
		}
		if changed == 0 {
			t.Fatalf("seed %d: the sequence changed no relation's output", seed)
		}
	}
}

// TestDirtyRelationsPoolStrategyCopiesNoGraph guards sweep_dense's per-batch
// cost: for a strategy whose weights read only the relation's own triples,
// DirtyRelations allocates a handful of small sets, never a graph copy.
func TestDirtyRelationsPoolStrategyCopiesNoGraph(t *testing.T) {
	ds, _ := testModel(t)
	d := cloneDataset(ds)
	st := NewState(d.Train, nil, nil)
	ap, err := st.Apply(testBatch(d.Train, 1))
	if err != nil {
		t.Fatal(err)
	}
	const bound = 8
	clone := testing.AllocsPerRun(10, func() { d.Train.Clone() })
	if clone <= bound {
		t.Fatalf("a graph copy costs %v allocations, within the bound %d: the bound shows nothing", clone, bound)
	}
	allocs := testing.AllocsPerRun(10, func() { st.DirtyRelations("entity_frequency", ap) })
	if allocs > bound {
		t.Fatalf("DirtyRelations(entity_frequency) made %v allocations, want at most %d (a graph copy makes %v)", allocs, bound, clone)
	}
}
