package main

// The names every later change claims against. BENCHMARK.json declares the
// same set (TestDeclaredNames keeps the two in step); bounds live only there.

// Workload names, in the order the ledger runs them.
var workloadNames = []string{"sweep_dense", "sweep_pruned", "sweep_stats", "train_mix", "serve_mixed"}

// sweepModels are the models sweep_dense covers, all six: ROADMAP item 2
// rewrites their sweeps generically.
var sweepModels = []string{"distmult", "complex", "transe", "hole", "rescal", "conve"}

type metricDecl struct {
	name, unit, better string
}

// endToEndMetrics are reported by every workload with tracing off. The
// contract wants every end-to-end metric from every workload and never zero,
// so they are workload-generic; bench/README.md says what a pass and an
// operation are on each workload.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerMetrics are reported by every workload with tracing on; a
// workload that does not exercise a layer reports 0 for it.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDecl {
	var out []metricDecl
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDecl{n, unit, better})
		}
	}
	perModel := func(prefix string, models []string) []string {
		var ns []string
		for _, m := range models {
			ns = append(ns, prefix+"."+m)
		}
		return ns
	}

	// What a user of one workload sees (the paper's efficiency, the
	// trainer's throughput, request latencies). They cannot be end-to-end
	// metrics under the contract because they only exist on some workloads.
	add("facts/h", "higher", "facts_per_hour")
	add("s", "lower", "sweep_p50_s")
	add("triples/s", "higher", "train_triples_per_s")
	add("contexts/s", "higher", "train_contexts_per_s")
	add("req/s", "higher", "requests_per_s")
	add("ms", "lower", "rank_p50_ms", "rank_p99_ms", "discover_cold_p50_ms", "discover_cold_p95_ms", "mutate_p50_ms", "mutate_p90_ms")
	add("ratio", "lower", "failed_share")

	add("GB/s", "higher", "vecmath.matvec_gbps", "vecmath.matmat_gbps")
	add("ns", "lower", "vecmath.bce_fused_ns_per_elem")

	add("us", "lower", perModel("kge.sweep_us", sweepModels)...)
	add("us", "lower", perModel("kge.batch_sweep_us_per_row", sweepModels)...)
	add("ratio", "lower", "kge.self_share")
	add("ms", "lower", "kge.load_gob_ms", "kge.load_flat_ms", "kge.fingerprint_ms")

	add("us", "lower", "eval.rank_object_us", "eval.rank_objects_us")
	add("ms", "lower", "eval.rank_batch_ms_per_block", "eval.pruned_exact_ms_per_block", "eval.pruned_approx_ms_per_block")
	add("ratio", "lower", "eval.self_share")
	add("triples/s", "higher", "eval.evaluate_triples_per_s")

	add("ms", "lower", "prune.build_ms", "prune.load_ms")
	add("ratio", "higher", "prune.cells_pruned_share", "prune.approx_precision")
	add("count", "lower", "prune.prescreen_rows_per_query")
	add("ratio", "lower", "prune.exact_vs_dense_ratio")

	add("ms", "lower", "graphstats.build_undirected_ms", "graphstats.triangles_ms", "graphstats.local_clustering_ms")
	add("us", "lower", "graphstats.live_us_per_op")

	add("us", "lower", "sample.alias_build_us")
	add("ns", "lower", "sample.draw_ns")

	add("ratio", "lower", "core.weight_share", "core.generate_share", "core.rank_share", "core.unattributed_share")
	add("ms", "lower", perModel("core.sweep_ms", sweepStrategies)...)
	add("ms", "lower", "core.relation_p50_ms", "core.first_relation_ms", "core.cache_weights_sweep_ms")
	add("count", "higher", "core.candidates", "core.facts", "core.batch_rows_per_sweep")
	add("count", "lower", "core.score_sweeps")
	add("ratio", "higher", "core.mrr")

	add("triples/s", "higher", perModel("train.negsample_triples_per_s", negsampleModels)...)
	add("contexts/s", "higher", perModel("train.kvsall_contexts_per_s", kvsallModels)...)
	add("s", "lower", "train.epoch_p50_s")

	add("s", "lower", "synth.generate_s", "kg.load_dataset_s")

	add("ratio", "lower", "jobs.journal_overhead_share")
	add("us", "lower", "jobs.append_p50_us")

	add("ms", "lower", "fleet.protocol_overhead_ms")
	add("count", "lower", "fleet.units")

	add("us", "lower", "mutate.apply_p50_us", "mutate.log_append_p50_us")
	add("count", "lower", "mutate.dirty_relations_per_batch")
	add("ms", "lower", "mutate.incremental_resweep_ms")
	add("ratio", "lower", "mutate.incremental_vs_full_ratio")

	add("ms", "lower", "serve.query_p50_ms", "serve.discover_overhead_ms", "serve.metrics_scrape_ms")
	add("us", "lower", "serve.score_p50_us", "serve.discover_hit_p50_us", "serve.rank_overhead_us")
	add("ratio", "higher", "serve.cache_hit_share")
	add("count", "lower", "serve.cache_invalidations", "serve.rejected_429")

	add("ratio", "lower", "trace.overhead_share")
	return out
}

// sweepStrategies are the strategies some sweep workload runs.
var sweepStrategies = []string{"entity_frequency", "uniform_random", "cluster_triangles", "cluster_coefficient", "graph_degree"}

// negsampleModels and kvsallModels are what train_mix trains under each
// objective.
var (
	negsampleModels = []string{"distmult", "complex", "transe", "conve"}
	kvsallModels    = []string{"distmult", "complex"}
)

// metricSet is the values one run reports. set panics on an undeclared name:
// a name that is not in the registry cannot reach the ledger.
type metricSet struct {
	decl   map[string]metricDecl
	values map[string]float64
}

func newMetricSet() *metricSet {
	ms := &metricSet{decl: map[string]metricDecl{}, values: map[string]float64{}}
	for _, d := range endToEndMetrics {
		ms.decl[d.name] = d
	}
	for _, d := range perLayerMetrics {
		ms.decl[d.name] = d
	}
	return ms
}

func (ms *metricSet) set(name string, v float64) {
	if _, ok := ms.decl[name]; !ok {
		panic("kgbench: undeclared metric " + name)
	}
	ms.values[name] = v
}
