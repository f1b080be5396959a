// Package prune implements the approximate-then-exact ranking index behind
// core.Options.PruneMode: a per-model coarse quantizer over the entity table
// that turns the exact O(|E|·d) corruption sweep into prescreen-then-rerank.
//
// It is a measured ablation, not a user-facing path: on trained embeddings
// it ranks slower than the dense sweep (EXPERIMENTS.md, "Pruned ranking
// ablation"). No command or server reaches it; only bench/kgbench imports
// it, and ROADMAP.md's "Delete internal/prune" item removes the package once
// the benchmark stops doing so.
//
// Two cooperating structures are built once per model checkpoint (keyed by
// kge.Fingerprint) from the model's kge.Model sweep geometry:
//
//   - an IVF cell index: k ≈ √|E| k-means centroids partition the entity
//     rows, and each cell stores residual-norm radii that turn a centroid
//     score into a sound per-cell score bound — max inner product via
//     q·c + ‖q‖₂·r (Cauchy–Schwarz), min distance via d(q, c) − r (triangle
//     inequality) for TransE;
//   - an int8 symmetric-quantized copy of the entity table, swept with the
//     widening vecmath kernels (DotI8, L1DistI8) as a cheap
//     second-stage filter inside cells the bounds could not discard.
//
// A Searcher runs the per-query branch-and-bound: visit cells in descending
// upper bound, maintain the top-M exact scores, stop when no remaining cell
// can beat the frontier, and rescore survivors with the exact float kernels
// on aligned 4-row blocks so every exact score is bit-identical to the dense
// sweep. All bounds are computed in float64 and inflated by a kernel-rounding
// slack, so they hold for the float32 scores the kernels actually compute,
// not just for real arithmetic — pruning only ever skips provably losing
// work, which is what makes core.PruneExact byte-identical to the dense
// path (DESIGN.md §10 gives the derivations).
package prune

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/kge"
	"repro/internal/vecmath"
)

// Params controls index construction.
type Params struct {
	// Cells is the number of k-means cells; 0 means ⌈√N⌉.
	Cells int
	// Iters is the number of Lloyd iterations; 0 means 8.
	Iters int
}

func (p Params) withDefaults(n int) Params {
	if p.Cells <= 0 {
		p.Cells = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if p.Cells > n {
		p.Cells = n
	}
	if p.Cells < 1 {
		p.Cells = 1
	}
	if p.Iters <= 0 {
		p.Iters = 8
	}
	return p
}

// quantInflate compensates the float64 evaluation of the quantization error
// terms themselves (scales stored as float32, codes produced by float
// division): a hair of multiplicative headroom on top of the analytic bound.
const quantInflate = 1 + 1e-6

// radiusInflate guards the per-cell residual radii the same way: they are
// accumulated in float64 from float32 data, so a relative margin of 1e-7
// strictly dominates the accumulation error at any dimension used here.
const radiusInflate = 1 + 1e-7

// Index is the per-checkpoint pruning structure. It is immutable after
// Build/Load and safe for concurrent Searchers.
type Index struct {
	fingerprint string
	geom        kge.SweepGeometry
	dim         int // sweep width (entity-table columns)
	qdim        int // quantized width: dim, or dim+1 with the bias folded in
	n           int
	cells       int

	centroids *vecmath.Matrix // cells×qdim
	radL2     []float64       // per cell: max ‖e' − c‖₂ over members
	radL1     []float64       // per cell: max ‖e' − c‖₁ over members
	cellStart []int32         // cells+1 prefix offsets into members
	members   []int32         // entity ids grouped by cell, ascending within

	codes  []int8    // n×qdim symmetric-quantized entity rows
	scale  []float32 // per-row dequant scale (dot geometry)
	codeL1 []float32 // per-row Σ|code| (dot geometry error bound)
	gscale float64   // global dequant scale (L1 geometry)

	maxRowL2 float64 // max augmented-row norms, for the kernel-rounding slack
	maxRowL1 float64
}

// Fingerprint returns the kge.Fingerprint the index was built for.
func (ix *Index) Fingerprint() string { return ix.fingerprint }

// Cells returns the number of IVF cells.
func (ix *Index) Cells() int { return ix.cells }

// NumEntities returns the entity count the index covers.
func (ix *Index) NumEntities() int { return ix.n }

// Geometry returns the sweep geometry the index was built over.
func (ix *Index) Geometry() kge.SweepGeometry { return ix.geom }

// Matches reports whether the index fits sweeper's geometry and fingerprint
// — the precondition for NewSearcher.
func (ix *Index) Matches(sw kge.Model, fingerprint string) bool {
	return ix.fingerprint == fingerprint &&
		ix.geom == sw.SweepGeometry() &&
		ix.dim == sw.SweepDim() &&
		ix.n == sw.NumEntities()
}

// buildSeed derives the deterministic k-means seed from the fingerprint and
// cell count, so the same checkpoint always builds the same index.
func buildSeed(fingerprint string, cells int) int64 {
	h := fnv.New64a()
	h.Write([]byte(fingerprint))
	fmt.Fprintf(h, "/cells=%d", cells)
	return int64(h.Sum64())
}

// augmentedRows returns the table the index quantizes: the sweep entity
// table, with the per-entity bias appended as an extra column when the model
// has one (ConvE). Folding the bias makes the dot-family bound exact for the
// full score q'·[e; b] with q' = [q; 1], with no special cases downstream.
func augmentedRows(sw kge.Model) (*vecmath.Matrix, int) {
	ent := sw.SweepEntityTable()
	bias := sw.SweepBias()
	if bias == nil {
		return ent, ent.Cols
	}
	qdim := ent.Cols + 1
	aug := vecmath.NewMatrix(ent.Rows, qdim)
	for o := 0; o < ent.Rows; o++ {
		row := aug.Row(o)
		copy(row, ent.Row(o))
		row[ent.Cols] = bias[o]
	}
	return aug, qdim
}

// Build constructs the index for sweeper's entity table. fingerprint must be
// the model's kge.Fingerprint; it pins the index to the exact weights. Only
// bench/kgbench and tests call it (see the package comment).
func Build(sw kge.Model, fingerprint string, p Params) (*Index, error) {
	n := sw.NumEntities()
	if n < 1 {
		return nil, fmt.Errorf("prune: model has no entities")
	}
	p = p.withDefaults(n)
	rows, qdim := augmentedRows(sw)

	ix := &Index{
		fingerprint: fingerprint,
		geom:        sw.SweepGeometry(),
		dim:         sw.SweepDim(),
		qdim:        qdim,
		n:           n,
		cells:       p.Cells,
	}

	centroids, assign := kmeans(rows, p.Cells, p.Iters, buildSeed(fingerprint, p.Cells))
	ix.centroids = centroids

	// Cell membership: counting sort by cell keeps members ascending within
	// each cell (rows are visited in ascending entity order).
	counts := make([]int32, p.Cells)
	for _, c := range assign {
		counts[c]++
	}
	ix.cellStart = make([]int32, p.Cells+1)
	for c := 0; c < p.Cells; c++ {
		ix.cellStart[c+1] = ix.cellStart[c] + counts[c]
	}
	next := append([]int32(nil), ix.cellStart[:p.Cells]...)
	ix.members = make([]int32, n)
	for o := 0; o < n; o++ {
		c := assign[o]
		ix.members[next[c]] = int32(o)
		next[c]++
	}

	// Residual radii, accumulated in float64 and inflated so they dominate
	// their own rounding.
	ix.radL2 = make([]float64, p.Cells)
	ix.radL1 = make([]float64, p.Cells)
	for o := 0; o < n; o++ {
		row, cen := rows.Row(o), centroids.Row(int(assign[o]))
		var l1, l2 float64
		for j := range row {
			d := float64(row[j]) - float64(cen[j])
			l2 += d * d
			l1 += math.Abs(d)
		}
		l2 = math.Sqrt(l2)
		c := assign[o]
		if l2 > ix.radL2[c] {
			ix.radL2[c] = l2
		}
		if l1 > ix.radL1[c] {
			ix.radL1[c] = l1
		}
	}
	for c := range ix.radL2 {
		ix.radL2[c] *= radiusInflate
		ix.radL1[c] *= radiusInflate
	}

	ix.quantize(rows)
	return ix, nil
}

// quantize fills the int8 copy of the (augmented) entity table. The dot
// geometry quantizes per row (scales differ by orders of magnitude across
// entities, and the error bound needs per-row Δ anyway); the L1 geometry
// shares one global scale so that code differences remain meaningful across
// rows.
func (ix *Index) quantize(rows *vecmath.Matrix) {
	n, qdim := ix.n, ix.qdim
	ix.codes = make([]int8, n*qdim)
	var maxL1, maxL2 float64
	for o := 0; o < n; o++ {
		row := rows.Row(o)
		var l1, l2 float64
		for _, v := range row {
			f := math.Abs(float64(v))
			l1 += f
			l2 += float64(v) * float64(v)
		}
		l2 = math.Sqrt(l2)
		if l1 > maxL1 {
			maxL1 = l1
		}
		if l2 > maxL2 {
			maxL2 = l2
		}
	}
	ix.maxRowL1 = maxL1 * radiusInflate
	ix.maxRowL2 = maxL2 * radiusInflate

	if ix.geom == kge.SweepDot {
		ix.scale = make([]float32, n)
		ix.codeL1 = make([]float32, n)
		for o := 0; o < n; o++ {
			row := rows.Row(o)
			var maxAbs float64
			for _, v := range row {
				if f := math.Abs(float64(v)); f > maxAbs {
					maxAbs = f
				}
			}
			delta := maxAbs / 127
			ix.scale[o] = float32(delta)
			code := ix.codes[o*qdim : (o+1)*qdim]
			var cl1 float64
			for j, v := range row {
				c := quantOne(float64(v), delta)
				code[j] = c
				cl1 += math.Abs(float64(c))
			}
			ix.codeL1[o] = float32(cl1)
		}
		return
	}

	// L1 geometry: one global scale over every entity component.
	var maxAbs float64
	for _, v := range rows.Data {
		if f := math.Abs(float64(v)); f > maxAbs {
			maxAbs = f
		}
	}
	ix.gscale = maxAbs / 127
	for o := 0; o < n; o++ {
		row := rows.Row(o)
		code := ix.codes[o*qdim : (o+1)*qdim]
		for j, v := range row {
			code[j] = quantOne(float64(v), ix.gscale)
		}
	}
}

// quantOne rounds v/delta to the nearest int8 step, clamped to ±127. With
// delta ≥ |v|/127 the clamp never engages; it guards callers that quantize
// out-of-range values (queries in the L1 geometry).
func quantOne(v, delta float64) int8 {
	if delta == 0 {
		return 0
	}
	c := math.Round(v / delta)
	if c > 127 {
		c = 127
	}
	if c < -127 {
		c = -127
	}
	return int8(c)
}

// kernelSlack returns the float-soundness margin added to every upper bound:
// an over-estimate of how far above the real score the float32 kernels'
// computed score can land through rounding. magnitude must bound the sum of
// absolute term magnitudes of the kernel's accumulation (‖q‖₂·‖e‖₂ for dot
// sweeps, ‖q‖₁+‖e‖₁ for L1); the naive-sum
// error bound is ≈ d·2⁻²⁴·magnitude and the factor 4 is headroom for the
// bound's own float64 evaluation and the quantized estimate path.
func kernelSlack(d int, magnitude float64) float64 {
	return 4 * float64(d) * (1.0 / (1 << 24)) * magnitude
}
