// Package vecmath provides the small float32 linear-algebra substrate that
// the KGE models are built on: dot products, saxpy, norms, Hadamard
// products, and parameter initialization. The paper's authors trained on a
// GPU through LibKGE/PyTorch; this package is the CPU substitute — simple,
// allocation-conscious scalar loops, sufficient for the embedding sizes used
// in this reproduction. The Go compiler does not vectorize them, so the hot
// kernels are written for what it does do: unrolled independent
// accumulators, bounds checked once per block rather than per element, no
// data-dependent branch in an inner loop.
//
// HolE's circular kernels, Correlate and Convolve (circular.go), sum each
// output in float64 on every port, so multiply-add fusion cannot move a bit.
//
// On amd64 twelve kernels are SSE2 assembly, each with a Go version
// elsewhere: the body of the integer DotI8 (int8_amd64.s), the two
// query-lane sweep kernels under MatMat and MatNegL1 (four queries per
// register), their two one-query kernels under MatVec and the leftover
// queries (the Go loop's own accumulators per register), and the bodies of
// Axpy and BucketKeys (sweep_amd64.s); and the four training kernels
// (train_amd64.s):
// dot4 under DotRows and QueryDots (one register per row holding Dot's
// four accumulators, the tail in lane 0, then (s0+s1)+(s2+s3)), Adam's row
// step (the Go expression's MULPS/ADDPS/DIVPS/SQRTPS in its order), one
// filter of a 3×3 convolution (four output columns per register, each
// adding the bias and then the taps in (u, v) order) and the KvsAll
// per-entity step (Axpy's operations, with the entity's rows held in
// registers across contexts), and SumInto's running sum (the sum as every
// add's first operand). The float kernels' summation order is part of
// the repository's byte-identity contracts, so the assembly performs each
// (row, query) pair's or element's operations in the order of the Go loop it
// replaces, operands included — the one-query dot kernel, dot4, Adam's step
// and the convolution hand any block with a NaN result back to that loop,
// whose operand order picks the surviving payload — and that loop stays as
// its oracle; all are pinned by digest (pin_test.go, pin_batched_test.go,
// pin_onequery_test.go, and for the training kernels the digests of the
// loops they replaced in internal/kge and internal/train).
package vecmath

import (
	"math"
	"math/rand"
	"sync"
)

// Dot returns the inner product of a and b. The slices must have equal
// length; this is the hot loop of every bilinear scoring function, so the
// check is a debug-style panic rather than an error return. The loop is
// 4-way unrolled with independent accumulators, breaking the loop-carried
// dependency so the adds pipeline. Summation order therefore differs from
// the naive loop by float re-association. Go does not fuse multiply-adds on
// amd64, so every product is rounded before it is added — the bits
// pin_test.go pins there; ports that fuse (arm64) skip the pins.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		// One slice check per block instead of eight index checks.
		a4, b4 := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += a4[0] * b4[0]
		s1 += a4[1] * b4[1]
		s2 += a4[2] * b4[2]
		s3 += a4[3] * b4[3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Axpy computes y += alpha*x in place. Element updates are independent, so
// unlike Dot the result is bit-identical to the naive loop, and so is the
// SSE2 body that runs on amd64 (sweep_amd64.s), four elements per register.
// x and y must not overlap unless they are the same slice.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("vecmath: Axpy length mismatch")
	}
	axpy(alpha, x, y)
}

// axpyGo is Axpy's Go loop, 4-way unrolled: the body off amd64 and the
// oracle of the SSE2 one.
func axpyGo(alpha float32, x, y []float32) {
	y = y[:len(x)] // one index check per element, as when Axpy held the loop
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// maxKeyBuckets is the largest bucket count BucketKeys takes: its top key,
// buckets+1, must fit a signed 16-bit lane.
const maxKeyBuckets = 1<<15 - 2

// BucketKeys writes a bucket key for every element of x into keys: with
// t = (x[i] − v0)·scale in float32, keys[i] is 0 for NaN and otherwise
// int(min(max(t, −1), buckets)) + 1, in [0, buckets+1], for 0 ≤ buckets ≤
// 2¹⁵ − 2. Rounding, the clamp and truncation are monotone, so x[i] ≤ x[j]
// implies keys[i] ≤ keys[j] for any non-NaN pair when scale is finite and
// positive, and the clamp comes before the conversion, so any float gives a
// key in range (a NaN scale keys everything 0). The SSE2 body on amd64
// (sweep_amd64.s) writes the same keys as the Go loop, four per register.
func BucketKeys(keys []uint16, x []float32, v0, scale float32, buckets int) {
	if len(keys) != len(x) {
		panic("vecmath: BucketKeys length mismatch")
	}
	if buckets < 0 || buckets > maxKeyBuckets {
		panic("vecmath: BucketKeys bucket count out of range")
	}
	bucketKeys(keys, x, v0, scale, float32(buckets))
}

// bucketKeysGo is BucketKeys' Go loop: the body off amd64 and the oracle of
// the SSE2 one.
func bucketKeysGo(keys []uint16, x []float32, v0, scale, top float32) {
	keys = keys[:len(x)]
	for i, v := range x {
		t := (v - v0) * scale
		k := uint16(0)
		if t == t {
			k = uint16(int32(min(max(t, -1), top)) + 1)
		}
		keys[i] = k
	}
}

// Hadamard stores a∘b into dst and returns dst. dst may alias a or b.
func Hadamard(dst, a, b []float32) []float32 {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("vecmath: Hadamard length mismatch")
	}
	for i := range a {
		dst[i] = a[i] * b[i]
	}
	return dst
}

// Add stores a+b into dst and returns dst.
func Add(dst, a, b []float32) []float32 {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("vecmath: Add length mismatch")
	}
	for i := range a {
		dst[i] = a[i] + b[i]
	}
	return dst
}

// Sub stores a−b into dst and returns dst.
func Sub(dst, a, b []float32) []float32 {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("vecmath: Sub length mismatch")
	}
	for i := range a {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// L2Norm returns the Euclidean norm ‖x‖₂.
func L2Norm(x []float32) float32 {
	return float32(math.Sqrt(float64(SquaredL2Norm(x))))
}

// SquaredL2Norm returns Σxᵢ².
func SquaredL2Norm(x []float32) float32 {
	var s float32
	for _, v := range x {
		s += v * v
	}
	return s
}

// abs32 clears the sign bit. Against `if v < 0 { v = -v }` it differs only
// on −0, which it turns into +0 — and a sum whose accumulator starts at +0
// cannot tell the two apart (+0 + −0 = +0). A comparison would be a branch
// on the sign of a difference of trained embeddings, which is a coin flip.
func abs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
}

// L1Distance returns Σ|aᵢ−bᵢ|, 4-way unrolled with independent
// accumulators (TransE's norm-1 corruption-sweep kernel).
func L1Distance(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: L1Distance length mismatch")
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a4, b4 := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += abs32(a4[0] - b4[0])
		s1 += abs32(a4[1] - b4[1])
		s2 += abs32(a4[2] - b4[2])
		s3 += abs32(a4[3] - b4[3])
	}
	for ; i < len(a); i++ {
		s0 += abs32(a[i] - b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// NormalizeL2 rescales x to unit Euclidean norm in place and reports whether
// that changed the bits of any element. Vectors with norm below 1e-12 are
// left untouched to avoid amplifying noise.
func NormalizeL2(x []float32) (changed bool) {
	n := L2Norm(x)
	if n < 1e-12 {
		return false
	}
	s := 1 / n
	for i, v := range x {
		x[i] = v * s
		changed = changed || math.Float32bits(x[i]) != math.Float32bits(v)
	}
	return changed
}

// XavierInit fills x with samples from U(−b, b) with b = sqrt(6/(fanIn+fanOut)),
// the Glorot/Xavier uniform initialization used by LibKGE's defaults.
func XavierInit(rng *rand.Rand, x []float32, fanIn, fanOut int) {
	b := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range x {
		x[i] = float32((rng.Float64()*2 - 1) * b)
	}
}

// NormalInit fills x with samples from N(mean, std²).
func NormalInit(rng *rand.Rand, x []float32, mean, std float64) {
	for i := range x {
		x[i] = float32(mean + rng.NormFloat64()*std)
	}
}

// Matrix is a dense row-major float32 matrix. It is the layout behind every
// embedding table: row i is the embedding of entity/relation i, so batched
// "score against all entities" operations are row sweeps with good locality.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns the mutable slice backing row i.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// MatVec computes dst = M·x with a fused 4-row kernel: each loaded x[j]
// feeds four independent dot-product chains, amortizing the query-vector
// traffic and loop overhead across rows. This is the kernel behind every
// "score one (s, r) query against all entities" sweep — M is the N×d
// entity table and x the query vector — so its throughput bounds ranking
// cost for all bilinear models. Two accumulators per row break the
// dependency chains; like Dot, summation order differs from the naive loop
// by float re-association. On amd64 the 4-row blocks run in SSE2 with the
// accumulators of two rows per register (sweep_amd64.s), the body MatMat's
// one to three leftover queries share; matVecRange is its oracle.
func MatVec(dst []float32, m *Matrix, x []float32) []float32 {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("vecmath: MatVec dimension mismatch")
	}
	p, buf := laneBuf(4 * m.Cols)
	dotRows(dst, m, x, spreadDot(buf, x), 0, m.Rows)
	lanePool.Put(p)
	return dst
}

// MatVecRange is MatVec restricted to rows [lo, hi): dst[i] = M.Row(i)·x for
// i in the range (other dst entries are untouched; dst must still have
// length ≥ hi). It is the rescoring kernel of pruned ranking
// (internal/prune), which scores only the aligned 4-row blocks containing
// shortlisted entities.
//
// Bit-identity contract: when lo is a multiple of 4 and hi is either a
// multiple of 4 or equal to M.Rows, every dst[i] is bit-identical to the
// whole-matrix MatVec — the 4-row blocks (and the final Dot tail, when
// hi == M.Rows) land on exactly the row indices a full sweep uses, with the
// same accumulation order. MatMat's tiling and prune's block rescoring both
// rely on this.
func MatVecRange(dst []float32, m *Matrix, x []float32, lo, hi int) {
	if len(x) != m.Cols || lo < 0 || hi > m.Rows || len(dst) < hi {
		panic("vecmath: MatVecRange dimension mismatch")
	}
	matVecRange(dst, m, x, lo, hi)
}

// matVecRange is MatVec restricted to rows [lo, hi): dst[i] = M.Row(i)·x for
// i in the range. When lo is a multiple of 4 the per-row accumulation is the
// same as a whole-matrix MatVec — the 4-row blocks land on the same row
// indices — which is the property MatMat's tiling relies on for bit-identity.
//
// Bounds are checked per 4-row block, not per element: the block is one slice
// of m.Data, the rows are cut from it, and rows and x are re-sliced to one
// common length, so inside the j loop the compiler has a single index left
// to check (x[j+1]) instead of ten. That one check sits between the even and
// the odd column on purpose: it ends a basic block, so the compiler schedules
// four products at a time and the eight accumulators stay in registers
// (loading both x values first leaves eight products live and spills two
// accumulators into the loop-carried chain). scripts/ci.sh holds the file to
// its bounds-check count so an edit cannot quietly bring the checks back.
func matVecRange(dst []float32, m *Matrix, x []float32, lo, hi int) {
	d := m.Cols
	x = x[:d]
	i := lo
	for ; i+4 <= hi; i += 4 {
		blk := m.Data[i*d : (i+4)*d]
		r0 := blk[:d][:len(x)]
		r1 := blk[d : 2*d][:len(x)]
		r2 := blk[2*d : 3*d][:len(x)]
		r3 := blk[3*d : 4*d][:len(x)]
		var s0a, s0b, s1a, s1b, s2a, s2b, s3a, s3b float32
		j := 0
		for ; j < len(x)-1; j += 2 {
			xa := x[j]
			s0a += r0[j] * xa
			s1a += r1[j] * xa
			s2a += r2[j] * xa
			s3a += r3[j] * xa
			xb := x[j+1]
			s0b += r0[j+1] * xb
			s1b += r1[j+1] * xb
			s2b += r2[j+1] * xb
			s3b += r3[j+1] * xb
		}
		if j < len(x) {
			xa := x[j]
			s0a += r0[j] * xa
			s1a += r1[j] * xa
			s2a += r2[j] * xa
			s3a += r3[j] * xa
		}
		out := dst[i : i+4 : i+4]
		out[0] = s0a + s0b
		out[1] = s1a + s1b
		out[2] = s2a + s2b
		out[3] = s3a + s3b
	}
	for ; i < hi; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
}

// matMatTileBytes is the row-tile footprint MatMat targets: one tile of M's
// rows should fit the L1 data cache with room left for the query rows and
// the destination slices, so every query of a block reads the tile from
// cache instead of RAM.
const matMatTileBytes = 32 << 10

// matMatTileRows returns the row-tile height MatMat uses for a matrix with
// cols columns: the largest multiple of 4 whose float32 footprint fits
// matMatTileBytes, and at least 4.
func matMatTileRows(cols int) int {
	rows := matMatTileBytes / (4 * cols)
	rows -= rows % 4
	if rows < 4 {
		rows = 4
	}
	return rows
}

// MatMat computes dst = Q·Mᵀ: dst.Row(j) = M·Q.Row(j) for every query row j.
// M is streamed in L1-sized row tiles and each tile is swept by every query
// before moving on, so the |M| memory traffic of Q.Rows MatVec calls is paid
// once per tile instead of once per query — the batching that makes
// relation-blocked ranking cheaper than per-group sweeps wherever the sweep
// is memory-bound. Inside a tile every group of four queries goes through
// the query-lane kernel (sweep_amd64.s: one query per SSE lane, each entity
// element broadcast once to meet all four), 2.5–2.7 times the scalar 4-row
// kernel's rate of one multiply-add per cycle; the one to three leftover
// queries take MatVec's kernel, and every query off amd64 the scalar one.
//
// Every dst row is bit-identical to MatVec(dst.Row(j), m, q.Row(j)): tile
// boundaries are multiples of 4 (matMatTileRows), so each tile's 4-row
// blocks and final Dot tail fall on exactly the row indices a whole-matrix
// MatVec would use, and both kernels perform each (row, query) pair's
// multiplies and adds in matVecRange's order. The one exception is which
// payload a NaN score carries in a four-query lane group: that kernel takes
// every operand in one order, the Go loop not (see dotRows4).
func MatMat(dst, m, q *Matrix) *Matrix {
	if q.Cols != m.Cols || dst.Rows != q.Rows || dst.Cols != m.Rows {
		panic("vecmath: MatMat dimension mismatch")
	}
	sweepTiles(dst, m, q, false)
	return dst
}

// MatNegL1 computes dst.Row(j)[i] = −L1Distance(q.Row(j), m.Row(i)), TransE's
// norm-1 score of every row of M for every query, tiled and laned like
// MatMat; a leftover query's kernel puts L1Distance's four accumulators in
// the lanes of one register. Every element is bit-identical to the per-pair
// L1Distance.
func MatNegL1(dst, m, q *Matrix) *Matrix {
	if q.Cols != m.Cols || dst.Rows != q.Rows || dst.Cols != m.Rows {
		panic("vecmath: MatNegL1 dimension mismatch")
	}
	sweepTiles(dst, m, q, true)
	return dst
}

// negL1Range is MatNegL1 for one query over rows [lo, hi): the oracle of
// the SSE2 one-query kernel and the path off amd64.
func negL1Range(dst []float32, m *Matrix, x []float32, lo, hi int) {
	out := dst[lo:hi]
	for k := range out {
		out[k] = -L1Distance(x, m.Row(lo+k))
	}
}

// lanePool holds the query buffers of the sweeps: 4·Cols floats for a
// lane group's interleaved queries and 4·Cols for each spread single query,
// so a sweep allocates nothing once its goroutine's P has one.
var lanePool = sync.Pool{New: func() any { return new([]float32) }}

// laneBuf takes a pooled buffer of n floats; the caller Puts p back.
func laneBuf(n int) (p *[]float32, buf []float32) {
	p = lanePool.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	return p, (*p)[:n]
}

// sweepTiles runs MatMat's sweep, or with l1 MatNegL1's, in row tiles:
// within a tile every group of four queries goes through the query-lane
// kernel and each of the one to three leftover queries through the
// one-query kernel, a dot query spread for it once per sweep. The kernels
// are called directly, not through function values, so that the matrices
// do not escape.
func sweepTiles(dst, m, q *Matrix, l1 bool) {
	w := 4 * m.Cols
	full := q.Rows &^ 3
	p, buf := laneBuf(w * (1 + q.Rows - full))
	defer lanePool.Put(p)
	var spread [3][]float32
	left := spread[:q.Rows-full] // the leftover queries' spread forms
	for i := range left {
		if !l1 {
			k := w * (1 + i)
			left[i] = spreadDot(buf[k:k+w], q.Row(full+i))
		}
	}
	tile := matMatTileRows(m.Cols)
	for lo := 0; lo < m.Rows; lo += tile {
		hi := min(lo+tile, m.Rows)
		for j := 0; j < full; j += 4 {
			if l1 {
				l1Lanes(dst, m, q, j, lo, hi, buf[:w])
			} else {
				dotLanes(dst, m, q, j, lo, hi, buf[:w])
			}
		}
		for i, xs := range left {
			j := full + i
			if l1 {
				negL1Rows(dst.Row(j), m, q.Row(j), lo, hi)
			} else {
				dotRows(dst.Row(j), m, q.Row(j), xs, lo, hi)
			}
		}
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Sigmoid returns 1/(1+e^(−x)) computed stably in float64.
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// Softplus returns log(1+e^x) computed stably: for large x it approaches x,
// for very negative x it approaches e^x.
func Softplus(x float32) float32 {
	v := float64(x)
	if v > 30 {
		return x
	}
	if v < -30 {
		return float32(math.Exp(v))
	}
	return float32(math.Log1p(math.Exp(v)))
}
