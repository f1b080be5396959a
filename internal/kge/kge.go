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
// object and subject sweeps, the relation-blocked and per-context batch
// sweeps, the KvsAll backward pass, the grouped negative-sampling scoring
// and backward pass, and the sweep's linear structure that pruned ranking
// reads. Model is that derived method set, sealed so that only Derive
// produces one: evaluation, discovery, training and serving all see one
// interface, and New returns it.
//
// Checkpoints are one CRC-checked, mmap-able flat container (flat.go); the
// gob snapshot before it (persist.go) is read only to migrate it (kgconvert).
package kge

import (
	"fmt"
	"math/rand"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

// Model is the one model contract: the operations Derive builds from a
// QueryModel, which every package outside kge scores, sweeps and trains
// through. It is sealed by an unexported method only *Derived has (and
// *Mapped, which embeds one), so a Model is always a derived QueryModel and
// no caller needs a fallback for anything else. Scores are comparable
// within a model only: a higher score means the model considers the triple
// more plausible. Implementations are safe for concurrent readers.
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

	// Params exposes the named parameter tables for the optimizer.
	Params() *ParamSet
	// ScoreWithContext is Score plus a forward context for AccumulateGrad;
	// reuse, if not nil, is an earlier one the caller is done with to refill.
	ScoreWithContext(t kg.Triple, reuse GradContext) (float32, GradContext)
	// AccumulateGrad accumulates upstream · ∂Score(t)/∂θ into gb. ctx must
	// come from a ScoreWithContext call for the same t (or be nil for
	// models that return nil contexts).
	AccumulateGrad(t kg.Triple, ctx GradContext, upstream float32, gb *GradBuffer)
	// PostBatch applies model-specific constraints after an optimizer step
	// (TransE projects entities onto the unit ball). step is the gradient
	// the step applied, its rows the rows it moved, or nil when any row may
	// have changed since the last call, as at the start of a training run.
	PostBatch(step *GradBuffer)
	// The batch and group operations the trainer steps through (sweep.go,
	// kvsall.go, groups.go).
	ScoreContextsBatch(ss []kg.EntityID, rs []kg.RelationID, out *vecmath.Matrix)
	AccumulateGradAllObjectsBatch(ss []kg.EntityID, rs []kg.RelationID, upstream *vecmath.Matrix, gb *GradBuffer)
	ScoreObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, out []float32, scr *GroupScratch)
	AccumulateGradObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, upstream []float32, gb *GradBuffer, scr *GroupScratch)
	ScoreSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, out []float32, scr *GroupScratch)
	AccumulateGradSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, upstream []float32, gb *GradBuffer, scr *GroupScratch)

	// The object sweep's linear structure, which pruned ranking reads
	// (internal/prune, eval's RankObjectsPruned); see Derived.
	SweepGeometry() SweepGeometry
	SweepDim() int
	SweepEntityTable() *vecmath.Matrix
	SweepBias() []float32
	BuildObjectQuery(s kg.EntityID, r kg.RelationID, dst []float32)

	derived() *Derived
}

// CheckCovers returns an error unless m has a row for every entity and every
// relation of g. Ranking indexes m's tables by g's IDs, so a model built for
// a smaller vocabulary would index past them in a ranking worker.
func CheckCovers(m Model, g *kg.Graph) error {
	if m.NumEntities() < g.NumEntities() || m.NumRelations() < g.NumRelations() {
		return fmt.Errorf("kge: model covers %d entities and %d relations, the graph has %d and %d",
			m.NumEntities(), m.NumRelations(), g.NumEntities(), g.NumRelations())
	}
	return nil
}

// Trainable and ObjectSweeper are Model: aliases kept only because bench/
// still names them, to go with the next [benchmark] PR.
type (
	Trainable     = Model
	ObjectSweeper = Model
)

// GradContext carries forward-pass intermediates from ScoreWithContext to
// AccumulateGrad so deep models (ConvE) need not recompute them. Models with
// cheap forward passes return nil.
type GradContext any

// Param is one named parameter table. Row granularity is the unit of sparse
// gradient accumulation and optimizer updates: embedding tables are updated
// only in the rows a batch touched.
type Param struct {
	Name string
	M    *vecmath.Matrix
	idx  int // position in its ParamSet, which GradBuffer indexes by
}

// ParamSet is an ordered collection of parameter tables.
type ParamSet struct {
	list     []*Param
	byName   map[string]*Param
	unfilled bool // Add leaves Data nil: see Config.unfilled
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
	p := &Param{Name: name, M: &vecmath.Matrix{Rows: rows, Cols: cols}, idx: len(ps.list)}
	if !ps.unfilled {
		p.M.Data = make([]float32, rows*cols)
	}
	ps.list = append(ps.list, p)
	ps.byName[name] = p
	return p
}

// Get returns the parameter named name, or nil.
func (ps *ParamSet) Get(name string) *Param { return ps.byName[name] }

// List returns the parameters in registration order. Callers must not
// modify the slice.
func (ps *ParamSet) List() []*Param { return ps.list }

// GradBuffer accumulates sparse per-row gradients for one optimizer step,
// addressed by *Param. Per table it keeps a row→slot index, the touched rows
// and the slots in fixed-size pages, so a row never moves while the buffer
// fills, and every slot past the touched rows is zero. It is not safe for
// concurrent writers; MergeRow, which writes only its own row, is.
type GradBuffer struct {
	ps     *ParamSet
	tables []gradTable
}

type gradTable struct {
	slot  []int32 // row → 1 + its slot, 0 when untouched
	rows  []int32 // touched rows in slot order
	shift uint    // a page holds 1<<shift rows: gradPage floats, at least one row
	pages [][]float32
}

const gradPage = 8192

// NewGradBuffer returns an empty gradient buffer over ps.
func NewGradBuffer(ps *ParamSet) *GradBuffer {
	gb := &GradBuffer{ps: ps, tables: make([]gradTable, len(ps.list))}
	for i, p := range ps.list {
		t := &gb.tables[i]
		t.slot = make([]int32, p.M.Rows)
		for 2<<t.shift*p.M.Cols <= gradPage {
			t.shift++
		}
	}
	return gb
}

// table returns p's rows, panicking when p is not one of the buffer's tables.
func (gb *GradBuffer) table(p *Param) *gradTable {
	if p.idx >= len(gb.tables) || gb.ps.list[p.idx] != p {
		panic(fmt.Sprintf("kge: parameter %q is not in this buffer's parameter set", p.Name))
	}
	return &gb.tables[p.idx]
}

// add returns row's slot, giving it the next free one (and page) if none.
func (t *gradTable) add(p *Param, row int) int {
	if i := t.slot[row]; i != 0 {
		return int(i - 1)
	}
	t.rows = append(t.rows, int32(row))
	t.slot[row] = int32(len(t.rows))
	if i := len(t.rows) - 1; i>>t.shift == len(t.pages) {
		t.pages = append(t.pages, make([]float32, p.M.Cols<<t.shift))
	}
	return len(t.rows) - 1
}

// at returns slot i, cols wide.
func (t *gradTable) at(i, cols int) []float32 {
	off := (i & (1<<t.shift - 1)) * cols
	return t.pages[i>>t.shift][off : off+cols : off+cols]
}

// Row returns the accumulator for row `row` of p, zero on first use.
func (gb *GradBuffer) Row(p *Param, row int) []float32 {
	t := gb.table(p)
	return t.at(t.add(p, row), p.M.Cols)
}

// Grad returns the accumulator for row `row` of p, or nil when the step has
// not touched it.
func (gb *GradBuffer) Grad(p *Param, row int) []float32 {
	t := gb.table(p)
	if t.slot[row] == 0 {
		return nil
	}
	return t.at(int(t.slot[row]-1), p.M.Cols)
}

// Axpy adds alpha·x into the accumulator for (p, row).
func (gb *GradBuffer) Axpy(p *Param, row int, alpha float32, x []float32) {
	vecmath.Axpy(alpha, x, gb.Row(p, row))
}

// Rows returns p's touched rows in slot order; callers must not modify them.
func (gb *GradBuffer) Rows(p *Param) []int32 { return gb.table(p).rows }

// Reset empties the buffer for the next step, zeroing the slots it used and
// keeping its pages.
func (gb *GradBuffer) Reset() {
	for i, p := range gb.ps.list {
		t := &gb.tables[i]
		for s, row := range t.rows {
			t.slot[row] = 0
			clear(t.at(s, p.M.Cols))
		}
		t.rows = t.rows[:0]
	}
}

// Merge is the serial half of merging others, over the same ParamSet, into
// gb: it gives gb a slot, still zero, for every row of theirs it lacks.
func (gb *GradBuffer) Merge(others []*GradBuffer) {
	for i, p := range gb.ps.list {
		for _, o := range others {
			for _, row := range o.tables[i].rows {
				gb.tables[i].add(p, int(row))
			}
		}
	}
}

// MergeRow, after Merge(others), adds row `row` of p from each of others,
// in order, into gb's slot with vecmath.Axpy(1, ·) and returns the sum —
// gb's row as it was, or zeros for a row Merge gave it (so a −0 gb lacked
// becomes +0), exactly as merging the buffers one after another leaves it.
func (gb *GradBuffer) MergeRow(p *Param, row int, others []*GradBuffer) []float32 {
	sum := gb.Grad(p, row)
	for _, o := range others {
		if g := o.Grad(p, row); g != nil {
			vecmath.Axpy(1, g, sum)
		}
	}
	return sum
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

	// ConvE geometry: entity/relation embeddings are reshaped to
	// Height×Width (Dim = Height·Width), stacked to 2Height×Width, and run
	// through Filters 3×3 convolutions. Zero values pick defaults derived
	// from Dim.
	ConvEHeight  int
	ConvEWidth   int
	ConvEFilters int

	// unfilled makes the constructors register every table's shape with
	// no data (nil Data) and skip initialization. Only checkpoint loaders
	// set it (newUnfilled): they check the shapes against the checkpoint's
	// records before any table memory exists, then point each table at its
	// record's data. Unexported on purpose: it is invisible to gob and
	// callers outside the package, so a snapshot's Config can never carry it.
	unfilled bool
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
func New(name string, cfg Config) (Model, error) {
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
	t.ps.unfilled = cfg.unfilled
	t.ent = t.ps.Add("entity", cfg.NumEntities, entCols)
	t.rel = t.ps.Add("relation", cfg.NumRelations, relCols)
	return t
}

// initXavier fills the entity rows, then the relation rows, from the
// generator seeded with cfg.Seed and returns it for models with further
// tables to initialize. It returns nil when the tables are unfilled, for a
// checkpoint loader to fill.
func (t *tables) initXavier(fan int) *rand.Rand {
	if t.cfg.unfilled {
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
func (t *tables) PostBatch(*GradBuffer) {}

// SweepGeometry implements QueryModel.
func (t *tables) SweepGeometry() SweepGeometry { return t.geom }

// config exposes the constructor arguments to the checkpoint writers.
func (t *tables) config() Config { return t.cfg }
