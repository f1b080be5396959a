package vecmath

// dotBlocks4x4 and l1Rows4 are the query-lane kernels of sweep_amd64.s, in
// SSE2, which every amd64 CPU has, so there is no feature detection. Both
// read four queries interleaved in q4 (see interleave4) and write query l's
// scores to dst[l*stride:]; m is whole 4-row blocks for dotBlocks4x4 and any
// number of rows for l1Rows4.
//
//go:noescape
func dotBlocks4x4(dst []float32, stride int, m, q4 []float32)

//go:noescape
func l1Rows4(dst []float32, stride int, m, q4 []float32)

// dotRows4 and l1Rows are the one-query kernels of sweep_amd64.s. dotRows4
// scores whole 4-row blocks of d columns against a query spread by
// spreadDot and returns how many rows it scored before a block with a NaN
// score, if any; l1Rows writes dst[i] = −L1Distance(x, row i) for len(dst)
// rows.
//
//go:noescape
func dotRows4(dst, m, xp []float32, d int) int

//go:noescape
func l1Rows(dst, m, x []float32)

// axpy is Axpy's SSE2 body: y[i] += alpha·x[i] over len(x) elements, four
// per register.
//
//go:noescape
func axpy(alpha float32, x, y []float32)

// bucketKeys is BucketKeys' SSE2 body (see bucketKeysGo for the keys), four
// elements per register.
//
//go:noescape
func bucketKeys(keys []uint16, x []float32, v0, scale, top float32)

// interleave4 packs queries j..j+3 of q lane-wise into lanes:
// lanes[4c+l] = q.Row(j+l)[c].
func interleave4(lanes []float32, q *Matrix, j int) []float32 {
	lanes = lanes[:4*q.Cols]
	q0, q1, q2, q3 := q.Row(j), q.Row(j+1), q.Row(j+2), q.Row(j+3)
	for c, v := range q0 {
		l := lanes[4*c : 4*c+4 : 4*c+4]
		l[0], l[1], l[2], l[3] = v, q1[c], q2[c], q3[c]
	}
	return lanes
}

// dotLanes is matVecRange over rows [lo, hi) for the four queries j..j+3:
// the aligned 4-row blocks in dotBlocks4x4, the ragged last rows of the
// matrix, if hi reaches them, through Dot as matVecRange takes them.
func dotLanes(dst, m, q *Matrix, j, lo, hi int, lanes []float32) {
	d := m.Cols
	q4 := interleave4(lanes, q, j)
	n4 := (hi - lo) &^ 3
	if n4 > 0 {
		dotBlocks4x4(dst.Data[j*dst.Cols+lo:], dst.Cols, m.Data[lo*d:(lo+n4)*d], q4)
	}
	for i := lo + n4; i < hi; i++ {
		for l := j; l < j+4; l++ {
			dst.Data[l*dst.Cols+i] = Dot(m.Row(i), q.Row(l))
		}
	}
}

// l1Lanes is negL1Range over rows [lo, hi) for the four queries j..j+3.
func l1Lanes(dst, m, q *Matrix, j, lo, hi int, lanes []float32) {
	d := m.Cols
	l1Rows4(dst.Data[j*dst.Cols+lo:], dst.Cols, m.Data[lo*d:hi*d], interleave4(lanes, q, j))
}

// spreadDot lays x out for dotRows4 in buf (4·len(x) floats), each column
// pair twice, as two rows' lanes meet it: x(j) x(j+1) x(j) x(j+1), and for
// a last odd column x(j) 0 x(j) 0.
func spreadDot(buf, x []float32) []float32 {
	d := len(x)
	buf = buf[:2*(d+d&1)]
	for j := 0; j+1 < d; j += 2 {
		p := buf[2*j : 2*j+4 : 2*j+4]
		p[0], p[1], p[2], p[3] = x[j], x[j+1], x[j], x[j+1]
	}
	if d&1 == 1 {
		p := buf[2*d-2 : 2*d+2]
		p[0], p[1], p[2], p[3] = x[d-1], 0, x[d-1], 0
	}
	return buf
}

// dotRows is matVecRange over rows [lo, hi) for one query x, spread into xp:
// the aligned 4-row blocks in dotRows4, except a block with a NaN score,
// which the Go loop rescores so that its NaN payload is the Go loop's, and
// the ragged last rows through Dot.
func dotRows(dst []float32, m *Matrix, x, xp []float32, lo, hi int) {
	d := m.Cols
	n4 := lo + (hi-lo)&^3
	for i := lo; i < n4; {
		i += dotRows4(dst[i:n4], m.Data[i*d:n4*d], xp, d)
		if i < n4 {
			matVecRange(dst, m, x, i, i+4)
			i += 4
		}
	}
	matVecRange(dst, m, x, n4, hi)
}

// negL1Rows is negL1Range through l1Rows.
func negL1Rows(dst []float32, m *Matrix, x []float32, lo, hi int) {
	d := m.Cols
	l1Rows(dst[lo:hi], m.Data[lo*d:hi*d], x)
}
