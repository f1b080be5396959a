package main

import "fmt"

// preset fixes every size of a run. There are two: "full" is the benchmark,
// "smoke" is the same code paths on a toy graph in well under a second per
// workload. All counts are per pass; a run makes as many whole passes as fit
// in -seconds (never fewer than minPasses).
type preset struct {
	name string

	// Fixture: synth custom config with kggen's shape defaults (8 types,
	// Zipf 1.0 entities / 0.9 relations, closure 0.2, noise 0.05, 5%/5%
	// valid/test) and seed = -seed.
	entities, relations, triples int
	dim                          int

	// setupRepeats is how often set-up runs; setup_s is the median.
	setupRepeats map[string]int
	// minPasses is the fewest passes a run measures: three, so that every
	// slot of the schedule has a median across passes.
	minPasses int

	// Discovery thresholds (the paper's §4.3 values).
	topN, maxCandidates int

	// sweep_dense / sweep_stats: models take one epoch on this many evenly
	// strided train triples.
	subsampleTriples int
	// sweep_pruned: epochs of full-split training before the index build.
	prunedEpochs int

	// train_mix.
	negsampleTriples, conveTriples int
	kvsallTriples                  int
	evalTriples                    int

	// serve_mixed: requests per pass by kind.
	serveRank, serveQuery, serveScore     int
	serveCold, serveHot, serveMutate      int
	serveQueryKeys, serveHotKeys, warmups int

	// checkFacts is how many discovered facts a sweep workload re-ranks one
	// candidate at a time after the measured phase.
	checkFacts int
	// probeReps is how often a layer probe repeats (the median is reported).
	probeReps int
}

var presets = map[string]preset{
	// full is the ISSUE's kg50k fixture scaled by 2/5 with its shape kept
	// (6 triples per entity, 20 relations): the contract's run budget
	// (114 runs in 3420 s) leaves about 25 s per run including set-up,
	// which kg50k's set-up alone exceeds. See README "Sizing".
	"full": {
		name:     "full",
		entities: 20000, relations: 20, triples: 120000, dim: 64,
		setupRepeats: map[string]int{"sweep_dense": 3, "sweep_pruned": 2, "sweep_stats": 3, "train_mix": 3, "serve_mixed": 3},
		minPasses:    3,
		topN:         500, maxCandidates: 500,
		subsampleTriples: 5000, prunedEpochs: 1,
		negsampleTriples: 25000, conveTriples: 3000, kvsallTriples: 128, evalTriples: 200,
		serveRank: 360, serveQuery: 80, serveScore: 40, serveCold: 70, serveHot: 60, serveMutate: 34,
		serveQueryKeys: 200, serveHotKeys: 10, warmups: 50,
		checkFacts: 200, probeReps: 9,
	},
	"smoke": {
		name:     "smoke",
		entities: 400, relations: 8, triples: 2400, dim: 16,
		setupRepeats: map[string]int{"sweep_dense": 1, "sweep_pruned": 1, "sweep_stats": 1, "train_mix": 1, "serve_mixed": 1},
		minPasses:    1,
		topN:         50, maxCandidates: 60,
		subsampleTriples: 600, prunedEpochs: 1,
		negsampleTriples: 600, conveTriples: 200, kvsallTriples: 32, evalTriples: 20,
		serveRank: 24, serveQuery: 8, serveScore: 4, serveCold: 4, serveHot: 6, serveMutate: 3,
		serveQueryKeys: 5, serveHotKeys: 2, warmups: 3,
		checkFacts: 20, probeReps: 2,
	},
}

func presetByName(name string) (preset, error) {
	p, ok := presets[name]
	if !ok {
		return preset{}, fmt.Errorf("unknown preset %q (want full or smoke)", name)
	}
	return p, nil
}
