package kge

import (
	"fmt"
	"math"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

// ConvE (Dettmers et al., 2018) is the convolutional model used in the
// paper's experiments. The subject and relation embeddings are reshaped to
// H×W grids, stacked into a 2H×W input image, passed through F 3×3 valid
// convolutions with ReLU, flattened, projected back to the embedding space
// by a fully connected layer with ReLU, and finally matched against the
// object embedding:
//
//	f(s, r, o) = ReLU( vec( ReLU( conv([s̄; r̄]) ) ) · W_fc ) · o + b_o
//
// Relative to the original, this implementation omits dropout and batch
// normalization (regularizers that matter for squeezing the last points of
// MRR on GPUs, not for the ranking behaviour studied here); the DESIGN.md
// substitution table records this.
//
// Because the hidden vector depends only on (s, r), it is the object query:
// an object sweep runs one forward pass and a single matrix-vector product —
// the 1-N scoring trick from the ConvE paper. The subject side has no such
// factorization and falls back to per-subject forwards.
type ConvE struct {
	tables      // N×d entity and K×d relation embeddings
	h, w    int // reshape geometry: Dim == h·w
	filters int
	oh, ow  int // conv output geometry: (2h−2)×(w−2)
	flat    int // filters·oh·ow

	conv    *Param // F×9 filter kernels (3×3 row-major)
	convB   *Param // 1×F filter biases
	fc      *Param // d×flat fully connected weight (row i produces hidden i)
	fcB     *Param // 1×d fully connected bias
	entBias *Param // N×1 per-entity output bias
}

// NewConvE constructs and initializes a ConvE model. If cfg.ConvEHeight and
// cfg.ConvEWidth are zero, the most square factorization of Dim is used;
// cfg.ConvEFilters defaults to 8.
func NewConvE(cfg Config) (*ConvE, error) {
	h, w := cfg.ConvEHeight, cfg.ConvEWidth
	if h == 0 && w == 0 {
		h, w = squarestFactors(cfg.Dim)
	}
	if h*w != cfg.Dim {
		return nil, fmt.Errorf("kge: conve: height %d × width %d != dim %d", h, w, cfg.Dim)
	}
	if 2*h < 3 || w < 3 {
		return nil, fmt.Errorf("kge: conve: stacked input %dx%d too small for 3x3 convolution", 2*h, w)
	}
	filters := cfg.ConvEFilters
	if filters == 0 {
		filters = 8
	}
	m := &ConvE{
		tables:  newTables("conve", cfg, cfg.Dim, cfg.Dim),
		h:       h,
		w:       w,
		filters: filters,
		oh:      2*h - 2,
		ow:      w - 2,
	}
	m.flat = m.filters * m.oh * m.ow
	m.conv = m.ps.Add("conv", m.filters, 9)
	m.convB = m.ps.Add("convbias", 1, m.filters)
	m.fc = m.ps.Add("fc", cfg.Dim, m.flat)
	m.fcB = m.ps.Add("fcbias", 1, cfg.Dim)
	m.entBias = m.ps.Add("entbias", cfg.NumEntities, 1)

	rng := m.initXavier(cfg.Dim)
	if rng == nil {
		return m, nil
	}
	for f := 0; f < m.filters; f++ {
		vecmath.XavierInit(rng, m.conv.M.Row(f), 9, 9)
	}
	for i := 0; i < cfg.Dim; i++ {
		vecmath.XavierInit(rng, m.fc.M.Row(i), m.flat, cfg.Dim)
	}
	return m, nil
}

// squarestFactors returns the factor pair (h, w) of d with h ≤ w and h as
// large as possible.
func squarestFactors(d int) (int, int) {
	for h := int(math.Sqrt(float64(d))); h >= 1; h-- {
		if d%h == 0 {
			return h, d / h
		}
	}
	return 1, d
}

// conveCtx holds a forward pass's activations and the backward pass's buffers.
type conveCtx struct {
	input               []float32 // 2h×w stacked image, row-major
	z1                  []float32 // conv pre-activations, filters×oh×ow
	x                   []float32 // flattened post-ReLU conv output, length flat
	z2                  []float32 // fc pre-activations, length d
	hidden              []float32 // post-ReLU hidden, length d
	dh, dz2, dx, dinput []float32 // backward buffers: d, d, flat and 2d long
}

// forward computes the hidden vector for (s, r) into reuse when it is a
// context an earlier call returned, or else into a new one.
func (m *ConvE) forward(reuse GradContext, s kg.EntityID, r kg.RelationID) *conveCtx {
	d, f := m.cfg.Dim, m.flat
	c, _ := reuse.(*conveCtx)
	if c == nil {
		b := make([]float32, 8*d+3*f)
		cut := func(n int) []float32 { p := b[:n:n]; b = b[n:]; return p }
		c = &conveCtx{input: cut(2 * d), z1: cut(f), x: cut(f), z2: cut(d), hidden: cut(d),
			dh: cut(d), dz2: cut(d), dx: cut(f), dinput: cut(2 * d)}
	}
	clear(c.hidden) // the fc layer below sets only its positive units
	copy(c.input[:d], m.ent.M.Row(int(s)))
	copy(c.input[d:], m.rel.M.Row(int(r)))

	vecmath.Conv3x3ReLU(c.z1, c.x, c.input, m.conv.M.Data, m.convB.M.Row(0), m.w)
	vecmath.DotRows(c.z2, m.fc.M.Data, c.x)
	fcb := m.fcB.M.Row(0)
	for i, z := range c.z2 {
		z += fcb[i] // the dot product as first operand: its NaN payload wins
		c.z2[i] = z
		if z > 0 {
			c.hidden[i] = z
		}
	}
	return c
}

// Score implements QueryModel.
func (m *ConvE) Score(t kg.Triple) float32 {
	score, _ := m.ScoreWithContext(t, nil)
	return score
}

// ScoreWithContext implements QueryModel.
func (m *ConvE) ScoreWithContext(t kg.Triple, reuse GradContext) (float32, GradContext) {
	c := m.forward(reuse, t.S, t.R)
	score := vecmath.Dot(c.hidden, m.ent.M.Row(int(t.O))) + m.entBias.M.Row(int(t.O))[0]
	return score, c
}

// ObjectQuery implements QueryModel — the 1-N scoring trick: the hidden
// vector depends only on (s, r), so one forward pass serves every object.
// The forward pass is deterministic in (s, r), so repeated calls produce
// bit-identical queries; the activations are returned for the adjoint.
func (m *ConvE) ObjectQuery(s kg.EntityID, r kg.RelationID, q []float32, reuse GradContext) GradContext {
	c := m.forward(reuse, s, r)
	copy(q, c.hidden)
	return c
}

// BackpropObjectQuery implements QueryModel: one backward pass through the
// FC and conv layers with dh = dq (backpropHidden is linear in dh for the
// fixed activation pattern of the forward pass).
func (m *ConvE) BackpropObjectQuery(s kg.EntityID, r kg.RelationID, ctx GradContext, dq []float32, gb *GradBuffer, _ *GroupScratch) {
	c, _ := ctx.(*conveCtx)
	if c == nil {
		c = m.forward(nil, s, r)
	}
	m.backpropHidden(s, r, c, dq, gb)
}

// SubjectQuery implements QueryModel: the convolution depends on the
// subject, so the score has no subject-side factorization.
func (m *ConvE) SubjectQuery(kg.RelationID, kg.EntityID, []float32) bool { return false }

// BackpropSubjectQuery implements QueryModel; with no subject query there
// is nothing to chain.
func (m *ConvE) BackpropSubjectQuery(kg.RelationID, kg.EntityID, []float32, *GradBuffer, *GroupScratch) {
}

// AccumulateGrad implements QueryModel with full backpropagation through the
// FC and convolution layers down to the subject and relation embeddings.
func (m *ConvE) AccumulateGrad(t kg.Triple, ctx GradContext, upstream float32, gb *GradBuffer) {
	c, _ := ctx.(*conveCtx)
	if c == nil {
		c = m.forward(nil, t.S, t.R)
	}
	oRow := m.ent.M.Row(int(t.O))

	// Output layer: score = hidden·o + b_o.
	gb.Axpy(m.ent, int(t.O), upstream, c.hidden)
	gb.Row(m.entBias, int(t.O))[0] += upstream

	// dh = upstream · o, then the shared FC+conv backward pass.
	for i := range c.dh {
		c.dh[i] = upstream * oRow[i]
	}
	m.backpropHidden(t.S, t.R, c, c.dh, gb)
}

// backpropHidden pushes a hidden-layer gradient through the FC and conv
// layers down to the subject and relation embeddings. Shared by the
// per-triple gradient and the object query's adjoint.
func (m *ConvE) backpropHidden(s kg.EntityID, r kg.RelationID, c *conveCtx, dh []float32, gb *GradBuffer) {
	d := m.cfg.Dim
	dz2, dx, dinput := c.dz2, c.dx, c.dinput
	clear(dz2)
	clear(dx)
	clear(dinput)
	gfcb := gb.Row(m.fcB, 0)
	for i := 0; i < d; i++ {
		if c.z2[i] > 0 && dh[i] != 0 {
			dz2[i] = dh[i]
			gfcb[i] += dz2[i]
			gb.Axpy(m.fc, i, dz2[i], c.x)
		}
	}
	for i := 0; i < d; i++ {
		if dz2[i] != 0 {
			vecmath.Axpy(dz2[i], m.fc.M.Row(i), dx)
		}
	}
	iw := m.w
	gconvB := gb.Row(m.convB, 0)
	for f := 0; f < m.filters; f++ {
		k := m.conv.M.Row(f)
		gk := gb.Row(m.conv, f)
		base := f * m.oh * m.ow
		for i := 0; i < m.oh; i++ {
			for j := 0; j < m.ow; j++ {
				idx := base + i*m.ow + j
				if c.z1[idx] <= 0 || dx[idx] == 0 {
					continue
				}
				g := dx[idx]
				gconvB[f] += g
				for u := 0; u < 3; u++ {
					inRow := (i + u) * iw
					kRow := u * 3
					for v := 0; v < 3; v++ {
						gk[kRow+v] += g * c.input[inRow+j+v]
						dinput[inRow+j+v] += g * k[kRow+v]
					}
				}
			}
		}
	}
	vecmath.Axpy(1, dinput[:d], gb.Row(m.ent, int(s)))
	vecmath.Axpy(1, dinput[d:], gb.Row(m.rel, int(r)))
}
