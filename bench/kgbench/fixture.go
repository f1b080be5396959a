package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/train"
)

// env is what every workload is handed: the sizes, the seed all inputs
// derive from, the parallelism, and a scratch directory inside the checkout.
type env struct {
	ctx  context.Context
	pre  preset
	seed int64
	// p = min(2, nproc) is Options.Workers, train.Config.Workers, the serve
	// client count and GOMAXPROCS.
	p   int
	dir string
	// trace is set on a traced run: half the passes record spans and the
	// layer probes run after the measured phase.
	trace bool
}

// stageTimes accumulates named set-up stage durations across set-up repeats.
type stageTimes map[string][]float64

// timed runs fn as the named set-up stage.
func (st stageTimes) timed(name string, fn func() error) error {
	t := time.Now()
	err := fn()
	st[name] = append(st[name], seconds(time.Since(t)))
	return err
}

// makeFixture generates the graph from the seed and returns it with the
// SHA-256 of its three splits.
func makeFixture(e *env, st stageTimes) (*kg.Dataset, string, error) {
	var ds *kg.Dataset
	err := st.timed("synth.generate", func() error {
		var err error
		ds, err = synth.Generate(synth.Config{
			Name:         fmt.Sprintf("kg%dk", e.pre.entities/1000),
			NumEntities:  e.pre.entities,
			NumRelations: e.pre.relations,
			NumTriples:   e.pre.triples,
			NumTypes:     8,
			EntityZipf:   1.0,
			RelationZipf: 0.9,
			ClosureProb:  0.2,
			NoiseProb:    0.05,
			ValidFrac:    0.05,
			TestFrac:     0.05,
			Seed:         e.seed,
		})
		return err
	})
	if err != nil {
		return nil, "", fmt.Errorf("generating fixture: %w", err)
	}
	h := sha256.New()
	for _, g := range []*kg.Graph{ds.Train, ds.Valid, ds.Test} {
		hashTriples(h, g.Triples())
	}
	return ds, hex.EncodeToString(h.Sum(nil)), nil
}

func hashTriples(w io.Writer, ts []kg.Triple) {
	var buf [12]byte
	for _, t := range ts {
		binary.LittleEndian.PutUint32(buf[0:], uint32(t.S))
		binary.LittleEndian.PutUint32(buf[4:], uint32(t.R))
		binary.LittleEndian.PutUint32(buf[8:], uint32(t.O))
		w.Write(buf[:])
	}
}

// subsample returns a dataset whose train split is n evenly strided triples
// of ds.Train over the same dictionaries, so models trained on it keep the
// full entity table.
func subsample(ds *kg.Dataset, n int) *kg.Dataset {
	ts := ds.Train.Triples()
	if n > len(ts) {
		n = len(ts)
	}
	g := kg.NewGraphWithDicts(ds.Train.Entities, ds.Train.Relations)
	for i := 0; i < n; i++ {
		g.Add(ts[i*len(ts)/n])
	}
	return &kg.Dataset{Name: ds.Name, Train: g, Valid: ds.Valid, Test: ds.Test}
}

// newModel constructs an untrained d-dimensional model over the fixture's
// vocabulary.
func newModel(e *env, name string, ds *kg.Dataset) (kge.Trainable, error) {
	return kge.New(name, kge.Config{
		NumEntities:  ds.Train.NumEntities(),
		NumRelations: ds.Train.NumRelations(),
		Dim:          e.pre.dim,
		Seed:         e.seed,
	})
}

// trainConfig is kgtrain's defaults with early stopping and evaluation off.
func trainConfig(e *env) train.Config {
	return train.Config{Epochs: 1, BatchSize: 256, NegSamples: 4, Workers: e.p, Seed: e.seed}
}

// trainedModel builds a model and runs epochs of negative-sampling training
// on ds.
func trainedModel(e *env, name string, ds *kg.Dataset, epochs int) (kge.Trainable, error) {
	m, err := newModel(e, name, ds)
	if err != nil {
		return nil, err
	}
	cfg := trainConfig(e)
	cfg.Epochs = epochs
	if _, err := train.Run(e.ctx, m, ds, cfg); err != nil {
		return nil, fmt.Errorf("training %s: %w", name, err)
	}
	return m, nil
}

// digestFacts is the digest of one sweep's output: every fact with its rank
// in the canonical output order, the same content kgdiscover's TSV carries.
func digestFacts(facts []core.Fact) string {
	h := sha256.New()
	var buf [16]byte
	for _, f := range facts {
		binary.LittleEndian.PutUint32(buf[0:], uint32(f.Triple.S))
		binary.LittleEndian.PutUint32(buf[4:], uint32(f.Triple.R))
		binary.LittleEndian.PutUint32(buf[8:], uint32(f.Triple.O))
		binary.LittleEndian.PutUint32(buf[12:], uint32(f.Rank))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestStrings folds an ordered list of digests into one.
func digestStrings(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checker counts operations and output checks: every operation and every
// check is one attempt, every failed one a failure with a note.
type checker struct {
	attempted, failed int
	notes             []string
}

// ops counts n operations that completed.
func (c *checker) ops(n int) { c.attempted += n }

// check counts one output check.
func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

// fail counts one failure (of an operation already counted as attempted).
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// relationSlice returns every step-th relation starting at offset: the
// relations one sliced sweep covers.
func relationSlice(rels []kg.RelationID, offset, step int) []kg.RelationID {
	var out []kg.RelationID
	for i := offset; i < len(rels); i += step {
		out = append(out, rels[i])
	}
	return out
}
