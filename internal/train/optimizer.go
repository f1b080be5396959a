package train

import (
	"fmt"
	"math"

	"repro/internal/kge"
	"repro/internal/vecmath"
)

// Optimizer turns one row's accumulated gradient into that row's update.
// Per-parameter state is indexed by row, so only the rows a batch touched
// pay any cost ("lazy" updates, the standard approach for embedding tables).
type Optimizer interface {
	Name() string
	// Rows readies p for one step and returns the update of one of its rows
	// given that row's gradient. The trainer calls Rows serially, once per
	// step for each parameter, then the returned function at most once per
	// row, concurrently on distinct rows.
	Rows(p *kge.Param) func(row int, grad []float32)
}

// NewSGD returns plain stochastic gradient descent with learning rate lr.
func NewSGD(lr float32) Optimizer { return &sgd{lr: lr} }

type sgd struct{ lr float32 }

func (s *sgd) Name() string { return "sgd" }

func (s *sgd) Rows(p *kge.Param) func(int, []float32) {
	return func(row int, grad []float32) { vecmath.Axpy(-s.lr, grad, p.M.Row(row)) }
}

// NewAdagrad returns Adagrad (Duchi et al., 2011) with learning rate lr.
func NewAdagrad(lr float32) Optimizer {
	return &adagrad{lr: lr, eps: 1e-8, accum: map[*kge.Param][]float32{}}
}

type adagrad struct {
	lr    float32
	eps   float32
	accum map[*kge.Param][]float32 // per parameter: squared-gradient accumulator
}

func (a *adagrad) Name() string { return "adagrad" }

func (a *adagrad) Rows(p *kge.Param) func(int, []float32) {
	acc := a.accum[p]
	if acc == nil {
		acc = make([]float32, len(p.M.Data))
		a.accum[p] = acc
	}
	return func(row int, grad []float32) {
		w := p.M.Row(row)
		base := row * p.M.Cols
		for i, g := range grad {
			acc[base+i] += g * g
			w[i] -= a.lr * g / (float32(math.Sqrt(float64(acc[base+i]))) + a.eps)
		}
	}
}

// NewAdam returns Adam (Kingma & Ba, 2014) with the given learning rate and
// the standard β₁=0.9, β₂=0.999, ε=1e-8. This is the optimizer the paper
// uses for all models. Bias correction is tracked per row, which is the
// correct "lazy Adam" treatment for sparsely updated embedding tables.
func NewAdam(lr float32) Optimizer {
	return &adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, state: map[*kge.Param]*adamState{}}
}

type adam struct {
	lr, beta1, beta2, eps float32
	state                 map[*kge.Param]*adamState
	c1, c2                []float32 // 1 − βᵗ by step count t, memoised: math.Pow is deterministic
}

type adamState struct {
	m, v  []float32 // first- and second-moment estimates
	t     []int32   // per-row step counts for bias correction
	steps int32     // Rows calls so far, which bound every row's t
}

func (a *adam) Name() string { return "adam" }

func (a *adam) Rows(p *kge.Param) func(int, []float32) {
	st := a.state[p]
	if st == nil {
		st = &adamState{m: make([]float32, len(p.M.Data)), v: make([]float32, len(p.M.Data)), t: make([]int32, p.M.Rows)}
		a.state[p] = st
	}
	st.steps++
	for t := len(a.c1); t <= int(st.steps); t++ {
		a.c1 = append(a.c1, float32(1-math.Pow(float64(a.beta1), float64(t))))
		a.c2 = append(a.c2, float32(1-math.Pow(float64(a.beta2), float64(t))))
	}
	return func(row int, grad []float32) {
		st.t[row]++
		t := st.t[row]
		lo, hi := row*p.M.Cols, (row+1)*p.M.Cols
		vecmath.AdamRow(p.M.Row(row), st.m[lo:hi], st.v[lo:hi], grad,
			vecmath.AdamStep{LR: a.lr, Beta1: a.beta1, Beta2: a.beta2, Eps: a.eps, C1: a.c1[t], C2: a.c2[t]})
	}
}

// OptimizerByName resolves an optimizer from its CLI name.
func OptimizerByName(name string, lr float32) (Optimizer, error) {
	switch name {
	case "adam":
		return NewAdam(lr), nil
	case "adagrad":
		return NewAdagrad(lr), nil
	case "sgd":
		return NewSGD(lr), nil
	default:
		return nil, fmt.Errorf("train: unknown optimizer %q (supported: adam, adagrad, sgd)", name)
	}
}
