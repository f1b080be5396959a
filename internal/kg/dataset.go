package kg

import (
	"fmt"
	"math/rand"
	"slices"
)

// Dataset bundles the train/validation/test splits of one benchmark. All
// three graphs share entity and relation dictionaries.
type Dataset struct {
	Name  string
	Train *Graph
	Valid *Graph
	Test  *Graph
}

// Metadata mirrors Table 1 of the paper: split sizes plus entity and
// relation counts.
type Metadata struct {
	Name       string
	Train      int
	Validation int
	Test       int
	Entities   int
	Relations  int
}

// Metadata computes the Table 1 row for the dataset.
func (d *Dataset) Metadata() Metadata {
	return Metadata{
		Name:       d.Name,
		Train:      d.Train.Len(),
		Validation: d.Valid.Len(),
		Test:       d.Test.Len(),
		Entities:   d.Train.Entities.Len(),
		Relations:  d.Train.Relations.Len(),
	}
}

// All returns the union of the three splits (the filter graph for the
// filtered ranking protocol).
func (d *Dataset) All() *Graph {
	return Merge(d.Train, d.Valid, d.Test)
}

// String implements fmt.Stringer for Metadata.
func (m Metadata) String() string {
	return fmt.Sprintf("%s: train=%d valid=%d test=%d entities=%d relations=%d",
		m.Name, m.Train, m.Validation, m.Test, m.Entities, m.Relations)
}

// SplitOptions controls Split.
type SplitOptions struct {
	// ValidFrac and TestFrac are fractions of the total triples to place in
	// the validation and test splits (e.g. 0.05 each for the CoDEx 90:5:5
	// protocol). The remainder goes to train.
	ValidFrac float64
	TestFrac  float64
	// Seed drives the shuffle.
	Seed int64
}

// Split partitions the triples of g into train/valid/test per opts. Every
// entity and relation that occurs in valid or test also occurs in train (the
// CoDEx property, also required so embedding lookups never miss): triples
// that would violate it are moved back to train. The returned graphs share
// g's dictionaries.
func Split(name string, g *Graph, opts SplitOptions) (*Dataset, error) {
	if opts.ValidFrac < 0 || opts.TestFrac < 0 || opts.ValidFrac+opts.TestFrac >= 1 {
		return nil, fmt.Errorf("kg: invalid split fractions valid=%g test=%g", opts.ValidFrac, opts.TestFrac)
	}
	triples := make([]Triple, g.Len())
	copy(triples, g.Triples())
	rng := rand.New(rand.NewSource(opts.Seed))
	rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })

	nValid := int(float64(len(triples)) * opts.ValidFrac)
	nTest := int(float64(len(triples)) * opts.TestFrac)
	nTrain := len(triples) - nValid - nTest

	d := &Dataset{
		Name:  name,
		Train: NewGraphWithDicts(g.Entities, g.Relations),
		Valid: NewGraphWithDicts(g.Entities, g.Relations),
		Test:  NewGraphWithDicts(g.Entities, g.Relations),
	}

	trainTriples := triples[:nTrain]
	validTriples := triples[nTrain : nTrain+nValid]
	testTriples := triples[nTrain+nValid:]

	var moved []Triple // valid and test triples sent back to train
	seenE := make(map[EntityID]bool)
	seenR := make(map[RelationID]bool)
	for _, t := range trainTriples {
		seenE[t.S], seenE[t.O], seenR[t.R] = true, true, true
	}
	place := func(ts []Triple) []Triple {
		kept := ts[:0]
		for _, t := range ts {
			if seenE[t.S] && seenE[t.O] && seenR[t.R] {
				kept = append(kept, t)
			} else {
				// Move back to train and mark its vocabulary as seen so
				// later triples referencing it can stay in their split.
				moved = append(moved, t)
				seenE[t.S], seenE[t.O], seenR[t.R] = true, true, true
			}
		}
		return kept
	}
	validTriples = place(validTriples)
	testTriples = place(testTriples)
	d.Train.AddAll(slices.Concat(trainTriples, moved))
	d.Valid.AddAll(validTriples)
	d.Test.AddAll(testTriples)
	return d, nil
}
