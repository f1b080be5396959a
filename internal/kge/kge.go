// Package kge implements knowledge graph embedding models from scratch:
// TransE, DistMult, ComplEx, RESCAL, HolE and ConvE — the models the paper
// defines (§2.1) and evaluates (§4). Each model learns latent vectors for
// entities and relations and exposes a scoring function f(t; Θ) expressing
// its confidence that triple t holds.
//
// The package is built around one contract, QueryModel. A model is
//
//   - its parameter tables (ParamSet), with the entity table under "entity";
//   - the per-triple reference, Score and AccumulateGrad;
//   - the object query q(s, r), with score(s, r, o) = geometry(q, E[o]) +
//     bias[o], and its adjoint, which chains ∂L/∂q into the subject and
//     relation parameters;
//   - the subject query q(r, o) and its adjoint, the mirror image.
//
// Everything else is derived from that contract once, in Derive: the
// object and subject sweeps behind Model, the relation-blocked and
// per-context batch sweeps, the KvsAll backward pass, the grouped
// negative-sampling scoring and backward pass, and the ObjectSweeper view
// that pruned ranking reads. New returns derived models, so evaluation,
// discovery, training and serving all see the same four interfaces: Model
// (read-only scoring), Trainable (gradients into a sparse GradBuffer),
// ObjectSweeper (the sweep's linear structure) and QueryModel.
//
// Checkpoints come in two containers, both CRC-checked: a gob snapshot
// (persist.go) and a flat, mmap-able layout (flat.go).
package kge

import (
	"fmt"
	"math/rand"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

// Model is the read-only scoring interface. Scores are comparable within a
// model only: a higher score means the model considers the triple more
// plausible. Implementations must be safe for concurrent readers.
type Model interface {
	// Name returns the canonical lowercase model name ("transe", …).
	Name() string
	// Dim returns the embedding size l.
	Dim() int
	// NumEntities and NumRelations return the vocabulary sizes the model
	// was constructed with.
	NumEntities() int
	NumRelations() int
	// Score returns f(t; Θ).
	Score(t kg.Triple) float32
	// ScoreAllObjects writes f((s, r, o')) for every entity o' into out,
	// which must have length NumEntities, and returns it. This is the hot
	// path of ranking a candidate against its object-side corruptions.
	ScoreAllObjects(s kg.EntityID, r kg.RelationID, out []float32) []float32
	// ScoreAllSubjects writes f((s', r, o)) for every entity s' into out.
	ScoreAllSubjects(r kg.RelationID, o kg.EntityID, out []float32) []float32
}

// GradContext carries forward-pass intermediates from ScoreWithContext to
// AccumulateGrad so deep models (ConvE) need not recompute them. Models with
// cheap forward passes return nil.
type GradContext any

// Trainable is implemented by models that can be trained with the
// gradient-based trainer in internal/train.
type Trainable interface {
	Model
	// Params exposes the named parameter tables for the optimizer.
	Params() *ParamSet
	// ScoreWithContext is Score plus a reusable forward context.
	ScoreWithContext(t kg.Triple) (float32, GradContext)
	// AccumulateGrad accumulates upstream · ∂Score(t)/∂θ into gb. ctx must
	// come from a ScoreWithContext call for the same t (or be nil for
	// models that return nil contexts).
	AccumulateGrad(t kg.Triple, ctx GradContext, upstream float32, gb *GradBuffer)
	// PostBatch applies model-specific constraints after an optimizer step
	// (e.g. TransE re-normalizes entity embeddings to the unit ball).
	PostBatch()
}

// Param is one named parameter table. Row granularity is the unit of sparse
// gradient accumulation and optimizer updates: embedding tables are updated
// only in the rows a batch touched.
type Param struct {
	Name string
	M    *vecmath.Matrix
}

// ParamSet is an ordered collection of parameter tables.
type ParamSet struct {
	list   []*Param
	byName map[string]*Param
}

// NewParamSet returns an empty parameter set.
func NewParamSet() *ParamSet {
	return &ParamSet{byName: make(map[string]*Param)}
}

// Add registers a parameter table under name and returns it. Registering a
// duplicate name panics: parameter naming is a compile-time property of each
// model.
func (ps *ParamSet) Add(name string, rows, cols int) *Param {
	if _, dup := ps.byName[name]; dup {
		panic(fmt.Sprintf("kge: duplicate parameter %q", name))
	}
	p := &Param{Name: name, M: vecmath.NewMatrix(rows, cols)}
	ps.list = append(ps.list, p)
	ps.byName[name] = p
	return p
}

// Get returns the parameter named name, or nil.
func (ps *ParamSet) Get(name string) *Param { return ps.byName[name] }

// List returns the parameters in registration order. Callers must not
// modify the slice.
func (ps *ParamSet) List() []*Param { return ps.list }

// rowKey identifies one row of one parameter table.
type rowKey struct {
	param string
	row   int
}

// GradBuffer accumulates sparse per-row gradients for one optimizer step.
// It is not safe for concurrent use; the trainer shards batches across
// goroutines each with its own buffer and merges them.
type GradBuffer struct {
	ps    *ParamSet
	grads map[rowKey][]float32
	dense map[string]*DenseGrad
}

// DenseGrad stores one parameter's gradient as a full Rows×Cols table plus a
// touched bitmap instead of per-row map entries. Kernels that touch most
// rows of a large table (KvsAll's entity backward sweeps every entity) opt
// in via GradBuffer.Dense: a map insert per touched row becomes an array
// index, and the accumulator is one pointer-free allocation instead of
// thousands of GC-scanned slices. Untouched rows stay invisible to Len,
// Merge, and ForEach, so the optimizer's sparse-row semantics are unchanged.
type DenseGrad struct {
	m       *vecmath.Matrix
	touched []bool
	n       int
}

// Row returns the dense accumulator for row, marking it touched.
func (d *DenseGrad) Row(row int) []float32 {
	if !d.touched[row] {
		d.touched[row] = true
		d.n++
	}
	return d.m.Row(row)
}

// NewGradBuffer returns an empty gradient buffer over ps.
func NewGradBuffer(ps *ParamSet) *GradBuffer {
	return &GradBuffer{ps: ps, grads: make(map[rowKey][]float32)}
}

// Dense switches param's accumulator to dense storage and returns it.
// Rows already accumulated sparsely are folded in, so the switch is safe at
// any point, and subsequent Row(param, ...) calls transparently resolve to
// the dense table. The per-row float values and accumulation orders are
// identical either way — Dense changes where gradients live, never what the
// optimizer sees, so training digests do not depend on it.
func (gb *GradBuffer) Dense(param string) *DenseGrad {
	if d, ok := gb.dense[param]; ok {
		return d
	}
	p := gb.ps.Get(param)
	if p == nil {
		panic(fmt.Sprintf("kge: unknown parameter %q", param))
	}
	d := &DenseGrad{
		m:       vecmath.NewMatrix(p.M.Rows, p.M.Cols),
		touched: make([]bool, p.M.Rows),
	}
	for k, g := range gb.grads {
		if k.param == param {
			copy(d.Row(k.row), g)
			delete(gb.grads, k)
		}
	}
	if gb.dense == nil {
		gb.dense = make(map[string]*DenseGrad)
	}
	gb.dense[param] = d
	return d
}

// Row returns the gradient accumulator for row `row` of parameter `param`,
// creating a zeroed one on first use.
func (gb *GradBuffer) Row(param string, row int) []float32 {
	if d, ok := gb.dense[param]; ok {
		return d.Row(row)
	}
	k := rowKey{param, row}
	if g, ok := gb.grads[k]; ok {
		return g
	}
	p := gb.ps.Get(param)
	if p == nil {
		panic(fmt.Sprintf("kge: unknown parameter %q", param))
	}
	g := make([]float32, p.M.Cols)
	gb.grads[k] = g
	return g
}

// Axpy adds alpha·x into the accumulator for (param, row).
func (gb *GradBuffer) Axpy(param string, row int, alpha float32, x []float32) {
	vecmath.Axpy(alpha, x, gb.Row(param, row))
}

// Len returns the number of distinct (param, row) entries touched.
func (gb *GradBuffer) Len() int {
	n := len(gb.grads)
	for _, d := range gb.dense {
		n += d.n
	}
	return n
}

// Merge adds other's accumulated gradients into gb.
func (gb *GradBuffer) Merge(other *GradBuffer) {
	for name, od := range other.dense {
		d := gb.Dense(name)
		for row, t := range od.touched {
			if t {
				vecmath.Axpy(1, od.m.Row(row), d.Row(row))
			}
		}
	}
	for k, g := range other.grads {
		vecmath.Axpy(1, g, gb.Row(k.param, k.row))
	}
}

// ForEach visits every accumulated (param, row, grad) entry. Iteration order
// is unspecified; optimizers must be order-independent (they are: per-row
// updates commute).
func (gb *GradBuffer) ForEach(fn func(param *Param, row int, grad []float32)) {
	for name, d := range gb.dense {
		p := gb.ps.Get(name)
		for row, t := range d.touched {
			if t {
				fn(p, row, d.m.Row(row))
			}
		}
	}
	for k, g := range gb.grads {
		fn(gb.ps.Get(k.param), k.row, g)
	}
}

// Config carries the constructor arguments shared by all models plus
// model-specific knobs.
type Config struct {
	NumEntities  int
	NumRelations int
	// Dim is the embedding size l. ComplEx interprets Dim as the number of
	// complex components (storage 2·Dim); ConvE requires Dim == H·W.
	Dim  int
	Seed int64

	// Norm selects TransE's distance: 1 (L1) or 2 (squared L2). 0 means 1.
	Norm int

	// ConvE geometry: entity/relation embeddings are reshaped to
	// Height×Width (Dim = Height·Width), stacked to 2Height×Width, and run
	// through Filters 3×3 convolutions. Zero values pick defaults derived
	// from Dim.
	ConvEHeight  int
	ConvEWidth   int
	ConvEFilters int

	// skipInit skips the random parameter initialization in the
	// constructors, leaving every table zeroed. Only checkpoint loaders set
	// it (the loaded weights overwrite — or, for mmap-backed checkpoints,
	// replace — the tables anyway, so initializing them is pure wasted
	// work). Unexported on purpose: it is invisible to gob and callers
	// outside the package, so a snapshot's Config can never carry it.
	skipInit bool
}

func (c Config) validate() error {
	switch {
	case c.NumEntities < 1:
		return fmt.Errorf("kge: NumEntities must be >= 1, got %d", c.NumEntities)
	case c.NumRelations < 1:
		return fmt.Errorf("kge: NumRelations must be >= 1, got %d", c.NumRelations)
	case c.Dim < 1:
		return fmt.Errorf("kge: Dim must be >= 1, got %d", c.Dim)
	}
	return nil
}

// ModelNames lists the supported model names in the order the paper's
// conclusion enumerates its experiments (plus HolE from the preliminaries).
func ModelNames() []string {
	return []string{"transe", "distmult", "complex", "rescal", "conve", "hole"}
}

// New constructs a model by name, with every derived operation attached.
func New(name string, cfg Config) (Trainable, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var (
		q   QueryModel
		err error
	)
	switch name {
	case "transe":
		q, err = NewTransE(cfg)
	case "distmult":
		q, err = NewDistMult(cfg)
	case "complex":
		q, err = NewComplEx(cfg)
	case "rescal":
		q, err = NewRESCAL(cfg)
	case "hole":
		q, err = NewHolE(cfg)
	case "conve":
		q, err = NewConvE(cfg)
	default:
		return nil, fmt.Errorf("kge: unknown model %q (supported: %v)", name, ModelNames())
	}
	if err != nil {
		return nil, err
	}
	return Derive(q), nil
}

// tables is the state the six models share: the constructor config, the
// parameter set, and its entity and relation tables.
type tables struct {
	name     string
	cfg      Config
	geom     SweepGeometry // SweepDot unless the constructor says otherwise
	ps       *ParamSet
	ent, rel *Param
}

func newTables(name string, cfg Config, entCols, relCols int) tables {
	t := tables{name: name, cfg: cfg, ps: NewParamSet()}
	t.ent = t.ps.Add("entity", cfg.NumEntities, entCols)
	t.rel = t.ps.Add("relation", cfg.NumRelations, relCols)
	return t
}

// initXavier fills the entity rows, then the relation rows, from the
// generator seeded with cfg.Seed and returns it for models with further
// tables to initialize. It returns nil, leaving the tables zeroed, when a
// checkpoint loader is about to overwrite them.
func (t *tables) initXavier(fan int) *rand.Rand {
	if t.cfg.skipInit {
		return nil
	}
	rng := rand.New(rand.NewSource(t.cfg.Seed))
	for _, p := range []*Param{t.ent, t.rel} {
		for i := 0; i < p.M.Rows; i++ {
			vecmath.XavierInit(rng, p.M.Row(i), fan, fan)
		}
	}
	return rng
}

// Name implements QueryModel.
func (t *tables) Name() string { return t.name }

// Dim implements QueryModel.
func (t *tables) Dim() int { return t.cfg.Dim }

// Params implements QueryModel.
func (t *tables) Params() *ParamSet { return t.ps }

// PostBatch implements QueryModel (no constraints; TransE overrides it).
func (t *tables) PostBatch() {}

// SweepGeometry implements QueryModel.
func (t *tables) SweepGeometry() SweepGeometry { return t.geom }

// config exposes the constructor arguments to the checkpoint writers.
func (t *tables) config() Config { return t.cfg }
