// Package train implements the machinery that fits a kge.Model to a
// knowledge graph: negative sampling, pairwise and pointwise loss functions,
// sparse-update optimizers (SGD, Adagrad, Adam — the paper trains everything
// with Adam), and a goroutine-parallel mini-batch trainer with optional
// early stopping on a validation metric.
package train

import (
	"fmt"

	"repro/internal/vecmath"
)

// Loss scores one positive triple against its sampled negatives and reports
// the gradient of the loss with respect to each raw model score. gradNegs
// must have the same length as negs. The return value is the loss for
// monitoring; the gradients are what training consumes.
type Loss interface {
	Name() string
	Eval(pos float32, negs []float32, gradPos *float32, gradNegs []float32) float32
}

// MarginRanking is the pairwise hinge loss from the original TransE paper:
// L = Σᵢ max(0, γ − f(pos) + f(negᵢ)).
type MarginRanking struct {
	// Margin is γ; zero means 1.
	Margin float32
}

// Name implements Loss.
func (l MarginRanking) Name() string { return "margin_ranking" }

// Eval implements Loss.
func (l MarginRanking) Eval(pos float32, negs []float32, gradPos *float32, gradNegs []float32) float32 {
	margin := l.Margin
	if margin == 0 {
		margin = 1
	}
	var loss float32
	*gradPos = 0
	for i, neg := range negs {
		gradNegs[i] = 0
		if v := margin - pos + neg; v > 0 {
			loss += v
			*gradPos--
			gradNegs[i] = 1
		}
	}
	return loss
}

// Logistic is the pointwise logistic (negative log-likelihood) loss used to
// train ComplEx and DistMult: L = softplus(−f(pos)) + Σᵢ softplus(f(negᵢ)).
// It is identical to binary cross-entropy on sigmoid outputs with labels
// 1 / 0, which is also how ConvE is trained.
type Logistic struct{}

// Name implements Loss.
func (Logistic) Name() string { return "logistic" }

// Eval implements Loss.
func (Logistic) Eval(pos float32, negs []float32, gradPos *float32, gradNegs []float32) float32 {
	loss := vecmath.Softplus(-pos)
	*gradPos = -vecmath.Sigmoid(-pos) // d softplus(−x)/dx = −σ(−x)
	for i, neg := range negs {
		loss += vecmath.Softplus(neg)
		gradNegs[i] = vecmath.Sigmoid(neg)
	}
	return loss
}

// LossByName resolves a loss from its CLI name.
func LossByName(name string) (Loss, error) {
	switch name {
	case "margin", "margin_ranking":
		return MarginRanking{}, nil
	case "logistic", "bce":
		return Logistic{}, nil
	default:
		return nil, fmt.Errorf("train: unknown loss %q (supported: margin, logistic)", name)
	}
}

// DefaultLossFor returns the conventional loss for a model: margin ranking
// for the translation/correlation models trained that way in the original
// papers, logistic for the (bi)linear and convolutional models.
func DefaultLossFor(model string) Loss {
	switch model {
	case "transe", "hole":
		return MarginRanking{Margin: 1}
	default:
		return Logistic{}
	}
}
