//go:build !amd64

package vecmath

// Off amd64 the training loops run their Go versions.

func dot4(dst *[4]float32, rows *[4][]float32, x []float32) {
	for k, r := range rows {
		dst[k] = Dot(r, x)
	}
}

func adamRow(_, _, _, _ []float32, _ *[8]float32) int { return 0 }

func conv3x3(_, _, _ []float32, _ int, _ []float32, _ float32) int { return 1 }

func sumInto(dst *float32, xs []float32) {
	for _, x := range xs {
		*dst += x
	}
}

func axpyGather(y, g []float32, js []int, q []float32, d int) {
	axpyGatherGo(y, g, js, q, d)
}

func axpyScatter(dq, g []float32, js []int, e []float32, d int) {
	axpyScatterGo(dq, g, js, e, d)
}
