package vecmath

import "math"

// The training loops at lane width. Each exported function here is a loop
// that a model or an optimizer ran itself until the kernels of
// train_amd64.s took its float work: ConvE's fully connected layer and the
// candidate scores of a negative-sampling group (DotRows, QueryDots), Adam's
// row update (AdamRow), ConvE's convolution (Conv3x3ReLU) and the KvsAll
// backward pass's per-entity step (AxpyScatter for the query rows,
// AxpyGather for the entity row, and SumInto for its bias). The Go loops
// stay as the kernels' oracles and as the bodies off amd64. The first three
// kernels hand any block with a NaN result back to the Go loop: when both
// operands of an SSE operation are NaN the first one's payload survives, the
// Go compiler picks operand order per expression, and without a NaN every
// operation here gives the same bits in either order. AxpyGather and
// AxpyScatter are Axpy's own operations and need no fallback.

// DotRows sets dst[i] = Dot(m[i·n:(i+1)·n], x) for the len(dst) rows of the
// row-major matrix m, n = len(x): four rows at a time through dot4, the
// last len(dst) mod 4 through Dot.
func DotRows(dst, m, x []float32) {
	n := len(x)
	if len(m) != len(dst)*n {
		panic("vecmath: DotRows shape mismatch")
	}
	var rows [4][]float32
	var out [4]float32
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		for k := range rows {
			rows[k] = m[(i+k)*n : (i+k+1)*n]
		}
		dot4(&out, &rows, x)
		for k, v := range out {
			if v != v {
				v = Dot(rows[k], x)
			}
			dst[i+k] = v
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = Dot(m[i*n:(i+1)*n], x)
	}
}

// QueryDots sets out[i] = Dot(q, m.Row(int(ids[i]))) for every id: four
// rows at a time through dot4, the rest through Dot.
func QueryDots[ID ~int32](out, q []float32, m *Matrix, ids []ID) {
	if len(q) != m.Cols || len(out) != len(ids) {
		panic("vecmath: QueryDots shape mismatch")
	}
	var rows [4][]float32
	var s [4]float32
	i := 0
	for ; i+4 <= len(ids); i += 4 {
		for k := range rows {
			rows[k] = m.Row(int(ids[i+k]))
		}
		dot4(&s, &rows, q)
		for k, v := range s {
			if v != v {
				v = Dot(q, rows[k])
			}
			out[i+k] = v
		}
	}
	for ; i < len(ids); i++ {
		out[i] = Dot(q, m.Row(int(ids[i])))
	}
}

// AdamStep holds the scalars of one Adam row update: the learning rate,
// the decay rates β₁ and β₂ of the two moments, ε, and the bias
// corrections C1 = 1 − β₁ᵗ and C2 = 1 − β₂ᵗ for the row's step count t.
type AdamStep struct{ LR, Beta1, Beta2, Eps, C1, C2 float32 }

// AdamRow applies one Adam step to a row of weights w with gradient g,
// updating the moments m and v in place, element by element:
//
//	m ← β₁·m + (1−β₁)·g
//	v ← β₂·v + (1−β₂)·g·g
//	w ← w − lr·(m/C1) / (√(v/C2) + ε)
//
// On amd64 four elements per register; a block with a NaN in its new m, v
// or w is left unstored by the kernel and runs the Go loop instead, as do
// the last len(g) mod 4 elements.
func AdamRow(w, m, v, g []float32, s AdamStep) {
	n := len(g)
	w, m, v = w[:n], m[:n], v[:n]
	k := [8]float32{s.Beta1, 1 - s.Beta1, s.Beta2, 1 - s.Beta2, s.C1, s.C2, s.LR, s.Eps}
	n4 := n &^ 3
	for i := 0; i < n; {
		if i < n4 {
			i += adamRow(w[i:n4], m[i:n4], v[i:n4], g[i:n4], &k)
		}
		e := n
		if i < n4 {
			e = i + 4
		}
		adamRowGo(w[i:e], m[i:e], v[i:e], g[i:e], &s)
		i = e
	}
}

// adamRowGo is AdamRow's Go loop: the body off amd64 and the oracle of the
// SSE2 one.
func adamRowGo(w, m, v, g []float32, s *AdamStep) {
	w, m, v = w[:len(g)], m[:len(g)], v[:len(g)]
	// Scalars in locals: the optimized build then orders every operation's
	// operands, and so picks its NaN payload, as TestAdamRowPinned holds.
	b1, b2, lr, eps, c1, c2 := s.Beta1, s.Beta2, s.LR, s.Eps, s.C1, s.C2
	for i, gi := range g {
		m[i] = b1*m[i] + (1-b1)*gi
		v[i] = b2*v[i] + (1-b2)*gi*gi
		mh := m[i] / c1
		vh := v[i] / c2
		w[i] -= lr * mh / (float32(math.Sqrt(float64(vh))) + eps)
	}
}

// Conv3x3ReLU runs len(bias) valid 3×3 convolutions over the image in, iw
// columns wide, with filter f's taps in k[9f:9f+9] (row-major). Output
// (i, j) of filter f, at f·oh·ow + i·ow + j with oh×ow = (rows−2)×(iw−2),
// is bias[f] plus the nine products k[9f+3u+v]·in[(i+u)·iw+j+v] added in
// (u, v) order; z gets it and x its ReLU, +0 wherever it is not > 0 (−0 and
// NaN included). On amd64 an output row takes four columns per register,
// its last block overlapping the one before when ow is not a multiple of
// four; a filter with a NaN output, or an image under six columns, runs the
// Go loop.
func Conv3x3ReLU(z, x, in, k, bias []float32, iw int) {
	oh, ow := len(in)/iw-2, iw-2
	plane := oh * ow
	if oh < 1 || ow < 1 || len(k) != 9*len(bias) || len(z) != len(bias)*plane || len(x) != len(z) {
		panic("vecmath: Conv3x3ReLU shape mismatch")
	}
	in = in[:(oh+2)*iw]
	for f, b := range bias {
		zf, xf, kf := z[f*plane:(f+1)*plane], x[f*plane:(f+1)*plane], k[9*f:9*f+9]
		if ow < 4 || conv3x3(zf, xf, in, iw, kf, b) != 0 {
			conv3x3Go(zf, xf, in, iw, kf, b)
		}
	}
}

// conv3x3Go is one filter of Conv3x3ReLU in Go: the body off amd64 and the
// oracle of the SSE2 one.
func conv3x3Go(z, x, in []float32, iw int, k []float32, b float32) {
	ow := iw - 2
	for i := 0; i < len(z)/ow; i++ {
		for j := 0; j < ow; j++ {
			var acc float32 = b
			for u := 0; u < 3; u++ {
				inRow := (i + u) * iw
				kRow := u * 3
				for v := 0; v < 3; v++ {
					acc += k[kRow+v] * in[inRow+j+v]
				}
			}
			idx := i*ow + j
			z[idx] = acc
			x[idx] = 0
			if acc > 0 {
				x[idx] = acc
			}
		}
	}
}

// AxpyGather is the entity half of the KvsAll backward pass's per-entity
// step: for each k in order, y += g[k]·q.Row(js[k]), every element's
// operations and operands Axpy's. On amd64 y stays in registers across the
// contexts, 16 columns at a time; the last len(y) mod 16 columns run the
// Axpys.
func AxpyGather(y, g []float32, js []int, q *Matrix) {
	d := len(y)
	checkPairs(d, q, g, js)
	d16 := d &^ 15
	if d16 > 0 {
		axpyGather(y[:d16], g, js, q.Data, d)
	}
	if d16 < d {
		axpyGatherGo(y[d16:], g, js, q.Data[d16:], d)
	}
}

// AxpyScatter is the query half: for each k in order, dq.Row(js[k]) +=
// g[k]·e, every element's operations and operands Axpy's. On amd64 e stays
// in registers across the contexts, 16 columns at a time; the last
// len(e) mod 16 columns run the Axpys.
func AxpyScatter(dq *Matrix, g []float32, js []int, e []float32) {
	d := len(e)
	checkPairs(d, dq, g, js)
	d16 := d &^ 15
	if d16 > 0 {
		axpyScatter(dq.Data, g, js, e[:d16], d)
	}
	if d16 < d {
		axpyScatterGo(dq.Data[d16:], g, js, e[d16:], d)
	}
}

// ColumnNonzeros sets js and gs, from their starts, to the rows j of m,
// ascending, whose element in column col is nonzero, and those elements:
// the contexts and upstreams AxpyGather and AxpyScatter take for one entity.
func ColumnNonzeros(js []int, gs []float32, m *Matrix, col int) ([]int, []float32) {
	js, gs = js[:0], gs[:0]
	for j := 0; j < m.Rows; j++ {
		if g := m.Data[j*m.Cols+col]; g != 0 {
			js, gs = append(js, j), append(gs, g)
		}
	}
	return js, gs
}

// checkPairs panics unless m is d wide, g and js pair up, and every js is a
// row of m.
func checkPairs(d int, m *Matrix, g []float32, js []int) {
	if m.Cols != d || len(g) != len(js) {
		panic("vecmath: AxpyGather/AxpyScatter shape mismatch")
	}
	for _, j := range js {
		if j < 0 || j >= m.Rows {
			panic("vecmath: AxpyGather/AxpyScatter row out of range")
		}
	}
}

// SumInto adds xs to *dst in order. On amd64 *dst is the first operand of
// every add, so of two NaNs the sum's payload survives, in every build:
// the order the KvsAll step's entity bias keeps (TestKvsAllStepPinned).
func SumInto(dst *float32, xs []float32) { sumInto(dst, xs) }

// axpyGatherGo is AxpyGather over the len(y) columns that y and the rows of
// q (d apart) start at: the body off amd64 and the oracle of the SSE2 one.
func axpyGatherGo(y, g []float32, js []int, q []float32, d int) {
	n := len(y)
	for k, j := range js {
		Axpy(g[k], q[j*d:j*d+n], y)
	}
}

// axpyScatterGo is AxpyScatter over the len(e) columns that e and the rows
// of dq (d apart) start at: the body off amd64 and the oracle of the SSE2
// one.
func axpyScatterGo(dq, g []float32, js []int, e []float32, d int) {
	n := len(e)
	for k, j := range js {
		Axpy(g[k], e, dq[j*d:j*d+n])
	}
}
