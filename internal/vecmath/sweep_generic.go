//go:build !amd64

package vecmath

// Off amd64 there are no sweep kernels: every query, in a lane group of four
// or on its own, runs the scalar loop, and Axpy and BucketKeys run their Go
// loops.

func dotLanes(dst, m, q *Matrix, j, lo, hi int, _ []float32) {
	for l := j; l < j+4; l++ {
		matVecRange(dst.Row(l), m, q.Row(l), lo, hi)
	}
}

func l1Lanes(dst, m, q *Matrix, j, lo, hi int, _ []float32) {
	for l := j; l < j+4; l++ {
		negL1Range(dst.Row(l), m, q.Row(l), lo, hi)
	}
}

func spreadDot(_, x []float32) []float32 { return x }

func dotRows(dst []float32, m *Matrix, x, _ []float32, lo, hi int) {
	matVecRange(dst, m, x, lo, hi)
}

func negL1Rows(dst []float32, m *Matrix, x []float32, lo, hi int) {
	negL1Range(dst, m, x, lo, hi)
}

func axpy(alpha float32, x, y []float32) { axpyGo(alpha, x, y) }

func bucketKeys(keys []uint16, x []float32, v0, scale, top float32) {
	bucketKeysGo(keys, x, v0, scale, top)
}
