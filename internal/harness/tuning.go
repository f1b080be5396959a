package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/train"
)

// This file implements the "Model Training" stage of the paper's
// experimental workflow (§3.2): "we conduct hyperparameter tuning on all
// possible combinations of datasets and embedding algorithms to obtain the
// optimal embedding models … for instance through grid search". The paper
// leans on LibKGE's grid-search syntax; this is the equivalent here.

// TuneSpace is the hyperparameter grid. Nil slices fall back to a single
// sensible default, so a zero TuneSpace trains exactly one configuration.
type TuneSpace struct {
	Dims          []int
	LearningRates []float64
	NegSamples    []int
	Losses        []string // train.LossByName names; empty string = model default
	L2s           []float64
}

func (s *TuneSpace) setDefaults() {
	if len(s.Dims) == 0 {
		s.Dims = []int{32}
	}
	if len(s.LearningRates) == 0 {
		s.LearningRates = []float64{0.05}
	}
	if len(s.NegSamples) == 0 {
		s.NegSamples = []int{4}
	}
	if len(s.Losses) == 0 {
		s.Losses = []string{""}
	}
	if len(s.L2s) == 0 {
		s.L2s = []float64{0}
	}
}

// TuneResult records one grid point.
type TuneResult struct {
	Dim          int
	LearningRate float64
	NegSamples   int
	Loss         string
	L2           float64
	ValidMRR     float64
	TrainTime    time.Duration
}

// Describe renders the configuration compactly.
func (t TuneResult) Describe() string {
	loss := t.Loss
	if loss == "" {
		loss = "default"
	}
	return fmt.Sprintf("dim=%d lr=%g negs=%d loss=%s l2=%g", t.Dim, t.LearningRate, t.NegSamples, loss, t.L2)
}

// GridSearch trains modelName on ds for every combination in space and
// returns all results plus the best model (by validation MRR). epochs
// bounds each training run; validation MRR is measured on at most 300
// triples for speed, like LibKGE's cheap validation metric.
func GridSearch(ctx context.Context, modelName string, ds *kg.Dataset, space TuneSpace, epochs int, seed int64, log io.Writer) ([]TuneResult, kge.Model, error) {
	space.setDefaults()
	if epochs <= 0 {
		epochs = 20
	}
	filter := ds.All()

	var results []TuneResult
	var best kge.Model
	bestMRR := -1.0

	for _, dim := range space.Dims {
		for _, lr := range space.LearningRates {
			for _, negs := range space.NegSamples {
				for _, lossName := range space.Losses {
					for _, l2 := range space.L2s {
						if err := ctx.Err(); err != nil {
							return nil, nil, err
						}
						var loss train.Loss
						if lossName != "" {
							var err error
							loss, err = train.LossByName(lossName)
							if err != nil {
								return nil, nil, err
							}
						}
						m, err := kge.New(modelName, kge.Config{
							NumEntities:  ds.Train.Entities.Len(),
							NumRelations: ds.Train.Relations.Len(),
							Dim:          dim,
							Seed:         seed,
						})
						if err != nil {
							return nil, nil, err
						}
						start := time.Now()
						if _, err := train.Run(ctx, m, ds, train.Config{
							Epochs:       epochs,
							BatchSize:    256,
							NegSamples:   negs,
							LearningRate: float32(lr),
							Loss:         loss,
							L2:           float32(l2),
							Seed:         seed,
						}); err != nil {
							return nil, nil, err
						}
						res := eval.Evaluate(eval.NewRanker(m, filter), ds.Valid, eval.Options{MaxTriples: 300})
						tr := TuneResult{
							Dim:          dim,
							LearningRate: lr,
							NegSamples:   negs,
							Loss:         lossName,
							L2:           l2,
							ValidMRR:     res.MRR,
							TrainTime:    time.Since(start),
						}
						results = append(results, tr)
						if log != nil {
							fmt.Fprintf(log, "tune %-45s valid MRR %.4f (%s)\n",
								tr.Describe(), tr.ValidMRR, tr.TrainTime.Round(time.Millisecond))
						}
						if res.MRR > bestMRR {
							bestMRR = res.MRR
							best = m
						}
					}
				}
			}
		}
	}
	return results, best, nil
}
