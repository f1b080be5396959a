package vecmath

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// checkTrainKernels holds the training kernels — SSE2 on amd64 — to their
// Go loops bit for bit, NaN payloads included: the NaN blocks of DotRows,
// QueryDots, AdamRow and Conv3x3ReLU run those loops, and AxpyGather and
// AxpyScatter are Axpy's own operations. The operands are the first floats
// of src, taken cyclically: a d-column matrix of nr rows, the step's
// scalars, an image iw columns wide, and contexts drawn from the rows.
func checkTrainKernels(t *testing.T, src []float32, d, nr, iw int) {
	t.Helper()
	off := 0
	next := func(n int) []float32 {
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = src[(off+i)%len(src)]
		}
		off += n
		return xs
	}
	same := func(what string, got, want []float32) {
		t.Helper()
		for i, w := range want {
			if math.Float32bits(got[i]) != math.Float32bits(w) {
				t.Fatalf("d=%d rows=%d iw=%d: %s[%d] = %x (%g), Go loop %x (%g)",
					d, nr, iw, what, i, math.Float32bits(got[i]), got[i], math.Float32bits(w), w)
			}
		}
	}

	m, x := &Matrix{Rows: nr, Cols: d, Data: next(nr * d)}, next(d)
	got, want := make([]float32, nr), make([]float32, nr)
	DotRows(got, m.Data, x)
	for i := range want {
		want[i] = Dot(m.Row(i), x)
	}
	same("DotRows", got, want)
	ids := make([]int32, 2*nr+1)
	for i := range ids {
		ids[i] = int32(i * 7 % nr)
	}
	got, want = make([]float32, len(ids)), make([]float32, len(ids))
	QueryDots(got, x, m, ids)
	for i, id := range ids {
		want[i] = Dot(x, m.Row(int(id)))
	}
	same("QueryDots", got, want)

	k := next(6)
	s := AdamStep{LR: k[0], Beta1: k[1], Beta2: k[2], Eps: k[3], C1: k[4], C2: k[5]}
	w, mo, v, g := next(d), next(d), next(d), next(d)
	gw, gm, gv := slices.Clone(w), slices.Clone(mo), slices.Clone(v)
	AdamRow(gw, gm, gv, g, s)
	adamRowGo(w, mo, v, g, &s)
	same("AdamRow w", gw, w)
	same("AdamRow m", gm, mo)
	same("AdamRow v", gv, v)

	filters, ih := 1+nr%3, 3+nr%4
	in, kern, bias := next(ih*iw), next(9*filters), next(filters)
	n := filters * (ih - 2) * (iw - 2)
	gz, gx, wz, wx := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
	Conv3x3ReLU(gz, gx, in, kern, bias, iw)
	plane := n / filters
	for f, b := range bias {
		conv3x3Go(wz[f*plane:(f+1)*plane], wx[f*plane:(f+1)*plane], in, iw, kern[9*f:9*f+9], b)
	}
	same("Conv3x3ReLU z", gz, wz)
	same("Conv3x3ReLU x", gx, wx)

	y, e := next(d), next(d)
	js := make([]int, 0, nr)
	for j := nr - 1; j >= 0; j -= 1 + j%2 {
		js = append(js, j)
	}
	gs := next(len(js))
	dq := &Matrix{Rows: nr, Cols: d, Data: next(nr * d)}
	gy, gdq := slices.Clone(y), &Matrix{Rows: nr, Cols: d, Data: slices.Clone(dq.Data)}
	AxpyGather(gy, gs, js, m)
	axpyGatherGo(y, gs, js, m.Data, d)
	same("AxpyGather", gy, y)
	AxpyScatter(gdq, gs, js, e)
	axpyScatterGo(dq.Data, gs, js, e, d)
	same("AxpyScatter", gdq.Data, dq.Data)
}

// trainSpecials are axpySpecials and the values Adam and the ReLU turn on:
// 1 − β at its edges and a negative second moment, whose root is NaN.
var trainSpecials = append([]float32{0.9, 0.999, 1e-8, -0.5}, axpySpecials...)

// TestTrainKernelsBitEqual runs checkTrainKernels at every length the pins
// use, with operands that are ordinary, special at a varying density (most
// blocks clean and a few taking the NaN path, or none clean), and image
// widths from 3 (the Go loop only) through one and two registers with and
// without an overlapping last block.
func TestTrainKernelsBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, d := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 672} {
		for rep := 0; rep < 24; rep++ {
			eighths := []int{0, 1, 4, 8}[rep%4]
			src := make([]float32, 4096)
			for i := range src {
				src[i] = float32(rng.NormFloat64())
				if rng.Intn(8) < eighths {
					src[i] = trainSpecials[rng.Intn(len(trainSpecials))]
				}
			}
			checkTrainKernels(t, src, d, 1+rng.Intn(9), 3+rep%12)
		}
	}
}

// TestTrainKernelsAllocateNothing: the four-row, Adam, convolution and
// KvsAll kernels work in their callers' memory.
func TestTrainKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, x := randomMatrix(rng, 64, 672), randomVec(rng, 672)
	dst := make([]float32, 64)
	ids := []int32{3, 1, 4, 1, 5, 9, 2}
	out := make([]float32, len(ids))
	w, mo, v, g := randomVec(rng, 65), randomVec(rng, 65), randomVec(rng, 65), randomVec(rng, 65)
	for i := range v {
		v[i] = v[i] * v[i]
	}
	in, k, bias := randomVec(rng, 16*8), randomVec(rng, 72), randomVec(rng, 8)
	z, xo := make([]float32, 8*14*6), make([]float32, 8*14*6)
	q, dq := randomMatrix(rng, 5, 64), NewMatrix(5, 64)
	y, e, gs, js := randomVec(rng, 64), randomVec(rng, 64), randomVec(rng, 3), []int{0, 2, 4}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"DotRows", func() { DotRows(dst, m.Data, x) }},
		{"QueryDots", func() { QueryDots(out, x[:672], m, ids) }},
		{"AdamRow", func() {
			AdamRow(w, mo, v, g, AdamStep{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, C1: 0.1, C2: 0.001})
		}},
		{"Conv3x3ReLU", func() { Conv3x3ReLU(z, xo, in, k, bias, 8) }},
		{"AxpyGather", func() { AxpyGather(y, gs, js, q) }},
		{"AxpyScatter", func() { AxpyScatter(dq, gs, js, e) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, allocs)
		}
	}
}

// TestConv3x3ReLUNegativeZero: a sum of −0 (a −0 bias plus −0 products)
// stays −0 in z and becomes +0 under the ReLU, as the Go loop's
// `if acc > 0` leaves it — drawn operands almost never sum to −0.
func TestConv3x3ReLUNegativeZero(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, iw := range []int{3, 6, 9} {
		in := make([]float32, 4*iw)
		k := []float32{-1, -2, -3, -4, -5, -6, -7, -8, -9}
		z, x := make([]float32, 2*(iw-2)), make([]float32, 2*(iw-2))
		Conv3x3ReLU(z, x, in, k, []float32{negZero}, iw)
		for i := range z {
			if math.Float32bits(z[i]) != 0x80000000 || math.Float32bits(x[i]) != 0 {
				t.Fatalf("iw=%d: output %d: z = %x, x = %x; want −0 and +0", iw, i, math.Float32bits(z[i]), math.Float32bits(x[i]))
			}
		}
	}
}

// TestSumIntoKeepsTheSumsPayload: SumInto adds in order, and on amd64, of
// two NaNs, the running sum's payload survives in every build.
func TestSumIntoKeepsTheSumsPayload(t *testing.T) {
	s := float32(1)
	SumInto(&s, []float32{0.5, 0.25, -2})
	if s != -0.25 {
		t.Fatalf("1 + 0.5 + 0.25 − 2 = %g, want −0.25", s)
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	s = math.Float32frombits(0x7fc00001)
	SumInto(&s, []float32{1, math.Float32frombits(0x7fc00002)})
	if math.Float32bits(s) != 0x7fc00001 {
		t.Fatalf("NaN sum plus NaN = %x, want the sum's 7fc00001", math.Float32bits(s))
	}
}

// TestColumnNonzeros: a column's entries that compare unequal to zero, NaN
// among them, are gathered in row order; +0 and −0 are skipped.
func TestColumnNonzeros(t *testing.T) {
	nan := float32(math.NaN())
	m := &Matrix{Rows: 5, Cols: 2, Data: []float32{
		1, 0,
		0, 2,
		float32(math.Copysign(0, -1)), 3,
		nan, 0,
		-4, 5,
	}}
	js, gs := ColumnNonzeros(make([]int, 3), make([]float32, 3), m, 0)
	if !slices.Equal(js, []int{0, 3, 4}) || gs[0] != 1 || gs[1] == gs[1] || gs[2] != -4 {
		t.Errorf("column 0: rows %v, values %v; want rows [0 3 4], values [1 NaN -4]", js, gs)
	}
	if js, gs = ColumnNonzeros(js, gs, m, 1); !slices.Equal(js, []int{1, 2, 4}) || !slices.Equal(gs, []float32{2, 3, 5}) {
		t.Errorf("column 1: rows %v, values %v; want rows [1 2 4], values [2 3 5]", js, gs)
	}
}
