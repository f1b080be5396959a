// Package harness orchestrates the paper's experimental study: it prepares
// the four simulated benchmark datasets, trains every KGE model on each,
// runs the fact discovery sweep over every sampling strategy, and renders
// the rows/series behind each table and figure of the evaluation section
// (Table 1, Figures 2–10, and the CLUSTERING SQUARES exclusion experiment).
//
// The harness caches trained models on disk so that the per-figure commands
// of cmd/repro can share one training pass.
package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/train"
)

// Config holds the sweep-wide knobs. Zero values select the defaults used
// by cmd/repro.
type Config struct {
	// Scale divides the paper's dataset sizes (entities and triples);
	// relation counts are kept exactly. Zero means 10.
	Scale int
	// Models lists the KGE models to sweep; nil means the paper's five
	// (ComplEx, ConvE, DistMult, RESCAL, TransE).
	Models []string
	// Strategies lists the sampling strategies to sweep; nil means the five
	// the paper compares (CLUSTERING SQUARES excluded, as in §4.3).
	Strategies []string
	// Dim is the embedding size; zero means 32.
	Dim int
	// Epochs is the training budget per model; zero means 25.
	Epochs int
	// TopN and MaxCandidates are the discovery hyperparameters; zero means
	// 500 each (§4.3's chosen values).
	TopN          int
	MaxCandidates int
	// TopNFraction, when > 0, overrides TopN per dataset with
	// ⌈fraction·|E|⌉, keeping the rank filter's *selectivity* constant
	// across dataset scales. The paper's absolute top_n = 500 is ~3% of
	// FB15K-237's entities; at reduced scales the absolute value becomes
	// weakly selective (see EXPERIMENTS.md, Figure 6 note) — this knob
	// reproduces the paper's selectivity instead of its absolute value.
	TopNFraction float64
	// Seed drives everything downstream.
	Seed int64
	// CacheDir, when non-empty, persists trained models between runs.
	CacheDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

func (c *Config) setDefaults() {
	if c.Scale == 0 {
		c.Scale = 10
	}
	if c.Models == nil {
		c.Models = PaperModels()
	}
	if c.Strategies == nil {
		c.Strategies = PaperStrategies()
	}
	if c.Dim == 0 {
		c.Dim = 32
	}
	if c.Epochs == 0 {
		c.Epochs = 25
	}
	if c.TopN == 0 {
		c.TopN = 500
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 500
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// PaperModels returns the five models of the paper's experiments, in the
// order its conclusion lists them.
func PaperModels() []string {
	return []string{"complex", "conve", "distmult", "rescal", "transe"}
}

// PaperStrategies returns the five strategies of the comparative
// experiments in the paper's x-axis order (UNIFORM RANDOM, ENTITY
// FREQUENCY, GRAPH DEGREE, CLUSTERING COEFFICIENT, CLUSTERING TRIANGLES).
func PaperStrategies() []string {
	return []string{
		"uniform_random",
		"entity_frequency",
		"graph_degree",
		"cluster_coefficient",
		"cluster_triangles",
	}
}

// Runner caches datasets and trained models across experiments.
type Runner struct {
	Cfg      Config
	datasets map[string]*kg.Dataset
	models   map[string]kge.Model // key: dataset/model
}

// NewRunner returns a Runner with defaults applied.
func NewRunner(cfg Config) *Runner {
	cfg.setDefaults()
	return &Runner{
		Cfg:      cfg,
		datasets: make(map[string]*kg.Dataset),
		models:   make(map[string]kge.Model),
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Cfg.Log != nil {
		fmt.Fprintf(r.Cfg.Log, format+"\n", args...)
	}
}

// DatasetNames returns the simulated dataset names in the paper's order.
func DatasetNames() []string {
	return []string{"fb15k237-sim", "wn18rr-sim", "yago310-sim", "codexl-sim"}
}

// presetFor maps a dataset name to its generator config at the given scale.
func presetFor(name string, scale int) (synth.Config, error) {
	switch name {
	case "fb15k237-sim":
		return synth.FB15K237Sim(scale), nil
	case "wn18rr-sim":
		return synth.WN18RRSim(scale), nil
	case "yago310-sim":
		return synth.YAGO310Sim(scale), nil
	case "codexl-sim":
		return synth.CoDExLSim(scale), nil
	default:
		return synth.Config{}, fmt.Errorf("harness: unknown dataset %q", name)
	}
}

// Dataset returns (generating and caching) the named simulated dataset.
func (r *Runner) Dataset(name string) (*kg.Dataset, error) {
	if ds, ok := r.datasets[name]; ok {
		return ds, nil
	}
	cfg, err := presetFor(name, r.Cfg.Scale)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ds, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: generate %s: %w", name, err)
	}
	r.logf("dataset %-13s generated in %s: %s", name, time.Since(start).Round(time.Millisecond), ds.Metadata())
	r.datasets[name] = ds
	return ds, nil
}

// Model returns (training and caching) the named model on the named
// dataset. Models are cached in memory and, when Config.CacheDir is set, on
// disk keyed by (dataset, model, scale, dim, epochs, seed).
func (r *Runner) Model(ctx context.Context, dataset, model string) (kge.Model, error) {
	key := dataset + "/" + model
	if m, ok := r.models[key]; ok {
		return m, nil
	}
	ds, err := r.Dataset(dataset)
	if err != nil {
		return nil, err
	}

	var cachePath string
	if r.Cfg.CacheDir != "" {
		cachePath = filepath.Join(r.Cfg.CacheDir, fmt.Sprintf("%s-%s-s%d-d%d-e%d-seed%d.kge",
			dataset, model, r.Cfg.Scale, r.Cfg.Dim, r.Cfg.Epochs, r.Cfg.Seed))
		// The cache is a flat checkpoint and stays mapped for the life of
		// the process; one that does not open is retrained and rewritten.
		if m, err := kge.OpenMapped(cachePath); err == nil {
			r.logf("model %-22s loaded from cache", key)
			r.models[key] = m
			return m, nil
		}
	}

	m, err := kge.New(model, kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          r.Cfg.Dim,
		Seed:         r.Cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	_, err = train.Run(ctx, m, ds, train.Config{
		Epochs:     r.Cfg.Epochs,
		BatchSize:  256,
		NegSamples: 4,
		Seed:       r.Cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: train %s: %w", key, err)
	}
	quick := eval.Evaluate(eval.NewRanker(m, ds.All()), ds.Valid, eval.Options{MaxTriples: 200})
	r.logf("model %-22s trained in %-8s valid MRR %.4f",
		key, time.Since(start).Round(time.Millisecond), quick.MRR)

	if cachePath != "" {
		if err := os.MkdirAll(r.Cfg.CacheDir, 0o755); err == nil {
			if err := kge.SaveFlatFile(m, cachePath); err != nil {
				r.logf("warning: cache %s: %v", cachePath, err)
			}
		}
	}
	r.models[key] = m
	return m, nil
}
