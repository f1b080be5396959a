package eval

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/kg"
	"repro/internal/kge"
)

// This file turns raw KGE scores into probabilities. The paper's problem
// statement (Definition 2.1) is phrased in terms of a probability
// threshold — "find triples t with P(t) > b" — while the implementation it
// evaluates (AmpliGraph's discover_facts) uses a rank threshold top_n. A
// calibrator bridges the two: Platt scaling fits a sigmoid
// P(t) = σ(a·f(t) + c) on held-out positives versus sampled negatives.
// Discovery keeps the paper's rank-based filter; the server's /score route
// reports the calibrated probability beside the raw score.

// PlattCalibrator maps raw scores to probabilities via σ(a·score + c).
type PlattCalibrator struct {
	A float64
	C float64
}

// Prob returns the calibrated probability for a raw model score.
func (p *PlattCalibrator) Prob(score float32) float64 {
	return 1 / (1 + math.Exp(-(p.A*float64(score) + p.C)))
}

// CalibrationOptions controls FitPlatt.
type CalibrationOptions struct {
	// Iterations of gradient descent (default 200).
	Iterations int
	// LearningRate for the two parameters (default 0.1).
	LearningRate float64
	// Seed drives negative sampling.
	Seed int64
}

func (o *CalibrationOptions) setDefaults() {
	if o.Iterations == 0 {
		o.Iterations = 200
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.1
	}
}

// maxCalibrationPositives bounds the calibration set.
const maxCalibrationPositives = 2000

// FitPlatt fits a Platt calibrator for model on a held-out graph (typically
// the validation split): positives are the graph's first
// maxCalibrationPositives triples, negatives are one uniform corruption of
// each, not present in filter (pass train ∪ valid ∪ test).
func FitPlatt(m kge.Model, heldout, filter *kg.Graph, opts CalibrationOptions) (*PlattCalibrator, error) {
	opts.setDefaults()
	triples := heldout.Triples()
	if len(triples) == 0 {
		return nil, fmt.Errorf("eval: empty held-out graph for calibration")
	}
	triples = triples[:min(len(triples), maxCalibrationPositives)]
	rng := rand.New(rand.NewSource(opts.Seed))

	var scores []float64
	var labels []float64
	for _, t := range triples {
		scores = append(scores, float64(m.Score(t)))
		labels = append(labels, 1)
		neg := corruptUnseen(t, m.NumEntities(), filter, rng)
		scores = append(scores, float64(m.Score(neg)))
		labels = append(labels, 0)
	}

	// Standardize scores for a well-conditioned fit; fold the affine
	// transform back into (A, C) afterwards.
	mean, std := meanStd(scores)
	if std == 0 {
		std = 1
	}

	a, c := 1.0, 0.0
	n := float64(len(scores))
	for it := 0; it < opts.Iterations; it++ {
		var ga, gc float64
		for i, s := range scores {
			z := (s - mean) / std
			p := 1 / (1 + math.Exp(-(a*z + c)))
			d := p - labels[i]
			ga += d * z
			gc += d
		}
		a -= opts.LearningRate * ga / n
		c -= opts.LearningRate * gc / n
	}
	return &PlattCalibrator{A: a / std, C: c - a*mean/std}, nil
}

func corruptUnseen(t kg.Triple, numEntities int, filter *kg.Graph, rng *rand.Rand) kg.Triple {
	for attempt := 0; attempt < 64; attempt++ {
		c := t
		if rng.Intn(2) == 0 {
			c.S = kg.EntityID(rng.Intn(numEntities))
		} else {
			c.O = kg.EntityID(rng.Intn(numEntities))
		}
		if c == t {
			continue
		}
		if filter != nil && filter.Contains(c) {
			continue
		}
		return c
	}
	// Fall back to any distinct corruption.
	c := t
	c.O = kg.EntityID((int(t.O) + 1) % numEntities)
	return c
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
