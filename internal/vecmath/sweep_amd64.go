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

// axpy is Axpy's SSE2 body: y[i] += alpha·x[i] over len(x) elements, four
// per register.
//
//go:noescape
func axpy(alpha float32, x, y []float32)

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
