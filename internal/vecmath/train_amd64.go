package vecmath

// The kernels of train_amd64.s, in SSE2 like sweep_amd64.s.

// dot4 sets dst[k] to Dot's four accumulators for rows[k]·x, one register
// per row, summed as Dot sums them. Every row must be len(x) long.
//
//go:noescape
func dot4(dst *[4]float32, rows *[4][]float32, x []float32)

// adamRow runs AdamRow over len(g)/4 whole blocks with k = β₁, 1−β₁, β₂,
// 1−β₂, C1, C2, lr, ε, and returns how many elements it stored before a
// block with a NaN in its new m, v or w, if any.
//
//go:noescape
func adamRow(w, m, v, g []float32, k *[8]float32) int

// conv3x3 is one filter of Conv3x3ReLU for an output at least four columns
// wide (iw ≥ 6), over len(z)/(iw−2) output rows; it returns nonzero when an
// output is NaN, leaving z and x for the Go loop to rewrite.
//
//go:noescape
func conv3x3(z, x, in []float32, iw int, k []float32, b float32) int

// sumInto is SumInto's body, an ADDSS per element.
//
//go:noescape
func sumInto(dst *float32, xs []float32)

// axpyGather is AxpyGather over the first len(y) columns, a multiple of
// 16, with q rows d floats apart.
//
//go:noescape
func axpyGather(y, g []float32, js []int, q []float32, d int)

// axpyScatter is AxpyScatter over the first len(e) columns, a multiple of
// 16, with dq rows d floats apart.
//
//go:noescape
func axpyScatter(dq, g []float32, js []int, e []float32, d int)
