package vecmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameFloat is bit equality with every NaN equal to every other: the lane
// kernels and the scalar loops may propagate different NaN payloads.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkSweeps holds MatMat and MatNegL1 — on amd64 the query-lane kernels
// and, for leftover queries, the one-query kernels — to the scalar Go loops
// they replace: a whole-matrix matVecRange per query and a per-pair
// L1Distance. MatVec, the one-query dot kernel on its own, is held to
// matVecRange too.
func checkSweeps(t *testing.T, m, q *Matrix) {
	t.Helper()
	dot := MatMat(NewMatrix(q.Rows, m.Rows), m, q)
	l1 := MatNegL1(NewMatrix(q.Rows, m.Rows), m, q)
	want, mv := make([]float32, m.Rows), make([]float32, m.Rows)
	for j := 0; j < q.Rows; j++ {
		matVecRange(want, m, q.Row(j), 0, m.Rows)
		MatVec(mv, m, q.Row(j))
		for i, w := range want {
			if got := dot.At(j, i); !sameFloat(got, w) {
				t.Fatalf("rows=%d cols=%d q=%d: MatMat[%d][%d] = %x (%g), scalar loop %x (%g)\nrow=%v\nquery=%v",
					m.Rows, m.Cols, q.Rows, j, i, math.Float32bits(got), got, math.Float32bits(w), w, m.Row(i), q.Row(j))
			}
			if got := mv[i]; !sameFloat(got, w) {
				t.Fatalf("rows=%d cols=%d: MatVec[%d] with query %d = %x (%g), scalar loop %x (%g)\nrow=%v\nquery=%v",
					m.Rows, m.Cols, i, j, math.Float32bits(got), got, math.Float32bits(w), w, m.Row(i), q.Row(j))
			}
			w = -L1Distance(q.Row(j), m.Row(i))
			if got := l1.At(j, i); !sameFloat(got, w) {
				t.Fatalf("rows=%d cols=%d q=%d: MatNegL1[%d][%d] = %x (%g), −L1Distance %x (%g)\nrow=%v\nquery=%v",
					m.Rows, m.Cols, q.Rows, j, i, math.Float32bits(got), got, math.Float32bits(w), w, m.Row(i), q.Row(j))
			}
		}
	}
}

// checkAxpy holds Axpy — SSE2 on amd64 — to its Go loop, every bit of every
// element, on y, with guard elements past its end that must stay untouched,
// and on x itself as y. A NaN matches any NaN: which payload the Go loop
// keeps depends on how it is compiled (the race detector's build adds y
// first in its tail loop), so axpyPins, taken from the optimized build, hold
// the payloads.
func checkAxpy(t *testing.T, alpha float32, x, y []float32) {
	t.Helper()
	same := func(what string, got, want []float32) {
		t.Helper()
		for i, w := range want {
			if !sameFloat(got[i], w) {
				t.Fatalf("n=%d alpha=%x %s: element %d = %x, Go loop %x (x=%x)",
					len(x), math.Float32bits(alpha), what, i, math.Float32bits(got[i]), math.Float32bits(w), x)
			}
		}
	}
	guard := []float32{1, 2, 3, 4}
	got, want := append(slices.Clone(y), guard...), slices.Clone(y)
	Axpy(alpha, x, got[:len(y)])
	axpyGo(alpha, x, want)
	same("y", got, append(want, guard...))

	got, want = slices.Clone(x), slices.Clone(x)
	Axpy(alpha, got, got)
	axpyGo(alpha, want, want)
	same("y = x", got, want)
}

// checkBucketKeys holds BucketKeys — SSE2 on amd64 — to its Go loop, every
// key, with guard keys past the end that must stay untouched.
func checkBucketKeys(t *testing.T, x []float32, v0, scale float32, buckets int) {
	t.Helper()
	guard := []uint16{0xdead, 0xbeef, 7, 9}
	got, want := append(make([]uint16, len(x)), guard...), make([]uint16, len(x))
	BucketKeys(got[:len(x)], x, v0, scale, buckets)
	bucketKeysGo(want, x, v0, scale, float32(buckets))
	for i, w := range append(want, guard...) {
		if got[i] != w {
			t.Fatalf("n=%d v0=%x scale=%x buckets=%d: key %d = %d, Go loop %d (x[i] %x)",
				len(x), math.Float32bits(v0), math.Float32bits(scale), buckets, i, got[i], w, x[min(i, len(x)):min(i+1, len(x))])
		}
	}
}

// TestBucketKeys pins the keys' definition on the values it is about — NaN
// of both signs and several payloads, ±Inf, ±0, t on a bucket edge, t in
// (−1, 0), and t past ±2³¹, where only the clamp keeps the conversion in
// range — and then holds the SSE2 body to the Go loop at every length to 70
// (the eight- and four-element groups and the one-at-a-time tail) and two
// wider ones, on drawn rows that are special at varying rates.
func TestBucketKeys(t *testing.T) {
	nan := func(bits uint32) float32 { return math.Float32frombits(bits) }
	inf := float32(math.Inf(1))
	for _, tc := range []struct {
		x    float32
		want uint16
	}{
		{nan(0x7fc00000), 0}, {nan(0xffc00000), 0}, {nan(0x7fc00001), 0}, {nan(0x7f800004), 0},
		{-inf, 0}, {-3e9, 0}, {-5, 0}, {-1, 0}, {-0.5, 1}, {float32(math.Copysign(0, -1)), 1},
		{0, 1}, {math.SmallestNonzeroFloat32, 1}, {0.5, 1}, {1, 2}, {7, 8}, {7.999, 8},
		{8, 9}, {9, 9}, {3e9, 9}, {1e30, 9}, {math.MaxFloat32, 9}, {inf, 9},
	} {
		// v0 = 0 and scale = 1 make t the element itself; the key is the
		// same wherever in a group of eight the element sits.
		for _, n := range []int{1, 4, 8, 13} {
			x := make([]float32, n)
			for i := range x {
				x[i] = tc.x
			}
			keys := make([]uint16, n)
			BucketKeys(keys, x, 0, 1, 8)
			for i, k := range keys {
				if k != tc.want {
					t.Fatalf("x=%g (%x), n=%d: key %d = %d, want %d", tc.x, math.Float32bits(tc.x), n, i, k, tc.want)
				}
			}
			checkBucketKeys(t, x, 0, 1, 8)
		}
	}

	rng := rand.New(rand.NewSource(38))
	lengths := []int{128, 255}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for rep := 0; rep < 16; rep++ {
			rate := []int{0, 16, 4, 1}[rep%4]
			// Every fourth case puts each element on a bucket edge: a
			// power-of-two scale and x = v0 + j/scale make t the integer j.
			v0, scale := float32(rng.NormFloat64()), float32(math.Ldexp(1, rng.Intn(40)-10))
			x := randomVec(rng, n)
			for i := range x {
				switch {
				case rate > 0 && rng.Intn(rate) == 0:
					x[i] = axpySpecials[rng.Intn(len(axpySpecials))]
				case rep%4 == 3:
					x[i] = v0 + float32(rng.Intn(40)-10)/scale
				}
			}
			checkBucketKeys(t, x, v0, scale, []int{0, 1, 7, 1024, maxKeyBuckets}[rep%5])
		}
	}
}

// TestAxpyBitEqualToGoLoop runs every length to 70 and two wider ones, with
// α and the elements drawn from axpySpecials at rates that vary per case,
// then every (α, x, y) triple of axpySpecials in one 256-element call.
func TestAxpyBitEqualToGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pick := func(rate int) float32 {
		if rate > 0 && rng.Intn(rate) == 0 {
			return axpySpecials[rng.Intn(len(axpySpecials))]
		}
		return float32(rng.NormFloat64())
	}
	lengths := []int{128, 255}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for rep := 0; rep < 20; rep++ {
			rate := []int{0, 16, 4, 1}[rep%4]
			x, y := make([]float32, n), make([]float32, n)
			for i := range x {
				x[i], y[i] = pick(rate), pick(rate)
			}
			checkAxpy(t, pick(rate), x, y)
		}
	}
	k := len(axpySpecials)
	x, y := make([]float32, k*k), make([]float32, k*k)
	for i := range x {
		x[i], y[i] = axpySpecials[i/k], axpySpecials[i%k]
	}
	for _, alpha := range axpySpecials {
		checkAxpy(t, alpha, x, y)
	}
}

// TestSweepKernelsBitEqualToGoLoops runs every lane-group remainder (1-9
// queries), every column remainder of both kernels' unrolls (d 1-9) and the
// embedding widths (63-65, 128), on row counts off the 4-row block and
// across a tile edge. Entity elements are, at a rate that varies per case,
// replaced by specialFloats or copied from a query (a difference of +0).
func TestSweepKernelsBitEqualToGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 128} {
		tile := matMatTileRows(cols)
		for _, rows := range []int{1, 2, 3, 5, 6, 7, 9, 14, min(tile+3, 300)} {
			for nq := 1; nq <= 9; nq++ {
				m, q := randomMatrix(rng, rows, cols), randomMatrix(rng, nq, cols)
				rate := []int{0, 64, 8, 2}[rng.Intn(4)]
				for i := range m.Data {
					if rate == 0 || rng.Intn(rate) != 0 {
						continue
					}
					qv := q.Row(rng.Intn(nq))[i%cols:]
					switch rng.Intn(3) {
					case 0:
						m.Data[i] = qv[0]
					case 1:
						m.Data[i] = specialFloats[rng.Intn(len(specialFloats))]
					case 2:
						m.Data[i] = specialFloats[rng.Intn(len(specialFloats))]
						qv[0] = specialFloats[rng.Intn(len(specialFloats))]
					}
				}
				checkSweeps(t, m, q)
			}
		}
	}
	// NaN in a query lane stays in that lane.
	m, q := randomMatrix(rng, 8, 5), randomMatrix(rng, 4, 5)
	q.Row(2)[3] = float32(math.NaN())
	checkSweeps(t, m, q)
	for _, v := range MatMat(NewMatrix(4, 8), m, q).Row(1) {
		if v != v {
			t.Fatal("a NaN in query 2 reached query 1's scores")
		}
	}
}

// FuzzSweepKernels feeds the kernels arbitrary float bits (NaN payloads,
// subnormals, infinities) at arbitrary shapes and holds them to the scalar
// loops bit for bit: the two sweeps, Axpy over the matrix's elements, and
// the training kernels (checkTrainKernels) at the matrix's width, with
// images 3 to 10 columns wide, so the convolution's overlapping last block
// runs at output widths 5 to 7. At that width it also holds the circular
// kernels, Correlate and Convolve of a query row and a matrix row, to their
// modular float64 references (checkCircular). BucketKeys is held to its Go
// loop on the matrix's elements and on a prefix of 0 to 9 of them (the
// kernel's ragged tail), with v0 the first of y and three scales: a drawn
// one, 1 (t on the bucket edges wherever x − v0 is an integer) and 2⁴⁰ (t
// past ±2³¹).
func FuzzSweepKernels(f *testing.F) {
	seed := make([]byte, 4*len(specialFloats))
	for i, v := range specialFloats {
		binary.LittleEndian.PutUint32(seed[4*i:], math.Float32bits(v))
	}
	f.Add(uint8(5), uint8(7), uint8(9), seed)
	f.Add(uint8(64), uint8(4), uint8(131), seed[:8])
	// NaN payloads and one ordinary value, at 64 columns (the training
	// kernels' register blocks) and a 9-column image (ow 7).
	nans := make([]byte, 4*len(axpySpecials)+4)
	for i, v := range axpySpecials {
		binary.LittleEndian.PutUint32(nans[4*i:], math.Float32bits(v))
	}
	binary.LittleEndian.PutUint32(nans[4*len(axpySpecials):], math.Float32bits(0.75))
	f.Add(uint8(63), uint8(5), uint8(14), nans)
	// Small integers and values past ±2³¹ beside NaNs: bucket edges and
	// clamped keys.
	edges := []float32{0, 1, 2, 3, -1, 0.5, 2.5, 7, 3e9, -3e9, 1e30, -1e30}
	edges = append(edges, axpySpecials[:4]...)
	edgeBytes := make([]byte, 4*len(edges))
	for i, v := range edges {
		binary.LittleEndian.PutUint32(edgeBytes[4*i:], math.Float32bits(v))
	}
	f.Add(uint8(9), uint8(2), uint8(3), edgeBytes)
	f.Fuzz(func(t *testing.T, cols, nq, rows uint8, data []byte) {
		m := NewMatrix(int(rows)%150+1, int(cols)%130+1)
		q := NewMatrix(int(nq)%9+1, m.Cols)
		y := make([]float32, len(m.Data))
		fill := func(xs []float32, off int) { // data's floats, cyclically
			for i := range xs {
				k := 4 * (off + i) % (len(data) &^ 3)
				xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[k:]))
			}
		}
		if len(data) >= 4 {
			fill(m.Data, 0)
			fill(q.Data, len(m.Data))
			fill(y, len(m.Data)+len(q.Data))
		}
		checkSweeps(t, m, q)
		checkAxpy(t, q.Data[0], m.Data, y)
		checkTrainKernels(t, append(m.Data, q.Data...), m.Cols, q.Rows, 3+int(rows)%8)
		checkCircular(t, q.Row(0), m.Row(0))
		buckets := []int{0, 1, 7, 1024, maxKeyBuckets}[int(rows)%5]
		for _, scale := range []float32{q.Data[0], 1, 0x1p40} {
			checkBucketKeys(t, m.Data, y[0], scale, buckets)
			checkBucketKeys(t, m.Data[:min(len(m.Data), int(cols)%10)], y[0], scale, buckets)
		}
	})
}

// TestSweepsAllocateNothing: the interleaved and spread query buffers come
// from a pool, so a warm sweep allocates nothing — at 9 queries (two lane
// groups and a leftover), at one query and at three (leftovers only), for
// the L1 sweep, for MatVec, and at k-means' shape, a 4 096-row chunk of
// entities as queries against the centroids. Nor does Axpy. AllocsPerRun
// reports the integer mean, so the race detector's random drop of one
// sync.Pool Put in four (a refill costs two allocations) cannot fail it at
// 100 runs. The circular kernels' doubled copies come from the same pool.
// BucketKeys writes into its caller's keys.
func TestSweepsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, q := randomMatrix(rng, 301, 64), randomMatrix(rng, 9, 64)
	dst := NewMatrix(9, 301)
	q1, q3 := randomMatrix(rng, 1, 64), randomMatrix(rng, 3, 64)
	one, three := NewMatrix(1, 301), NewMatrix(3, 301)
	centroids, chunk := randomMatrix(rng, 16, 32), randomMatrix(rng, 4096, 32)
	dots := NewMatrix(4096, 16)
	x, y := randomVec(rng, 65), randomVec(rng, 65)
	keys := make([]uint16, 65)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"MatMat/q=9", func() { MatMat(dst, m, q) }},
		{"MatNegL1/q=9", func() { MatNegL1(dst, m, q) }},
		{"MatMat/q=1", func() { MatMat(one, m, q1) }},
		{"MatNegL1/q=3", func() { MatNegL1(three, m, q3) }},
		{"MatVec", func() { MatVec(one.Data, m, q1.Data) }},
		{"MatMat/kmeans", func() { MatMat(dots, centroids, chunk) }},
		{"Axpy/n=65", func() { Axpy(0.5, x, y) }},
		{"BucketKeys/n=65", func() { BucketKeys(keys, x, -0.5, 300, 1024) }},
		{"Correlate/l=64", func() { Correlate(q1.Data, x[:64], y[:64]) }},
		{"Convolve/l=64", func() { Convolve(q1.Data, x[:64], y[:64]) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkMatNegL1 is BenchmarkMatMat's shape for TransE's L1 sweep.
func BenchmarkMatNegL1(b *testing.B) {
	for _, d := range []int{64, 128} {
		b.Run(fmt.Sprintf("n=50000/d=%d/q=8", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			m := randomMatrix(rng, 50000, d)
			q := randomMatrix(rng, 8, d)
			dst := NewMatrix(8, m.Rows)
			b.SetBytes(int64(m.Rows) * int64(d) * 4 * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatNegL1(dst, m, q)
			}
		})
	}
}

// BenchmarkOneQuery is the sweep behind one /rank or /query request: one
// query against a 20 000-entity table of width 64, for MatVec (the dot
// family) and for MatNegL1 (TransE's L1).
func BenchmarkOneQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, q := randomMatrix(rng, 20000, 64), randomMatrix(rng, 1, 64)
	dst := NewMatrix(1, m.Rows)
	b.Run("MatVec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatVec(dst.Data, m, q.Data)
		}
	})
	b.Run("MatNegL1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatNegL1(dst, m, q)
		}
	})
}
