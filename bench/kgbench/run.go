package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/bench/ledger"
)

// workload is one of the five named workloads.
type workload interface {
	// setup builds everything the measured phase needs, timing its stages;
	// it runs setupRepeats times, teardown between.
	setup(st stageTimes) error
	teardown()
	// pass runs the workload's fixed operation schedule once and returns
	// the work it completed (facts, trained examples, requests).
	pass(i int, rec *recorder, ck *checker) float64
	// verify runs the output checks that wait for the measured phase to end.
	verify(ck *checker)
	// finish reports what the recorded samples give; probes (traced runs
	// only) makes the direct timed calls into the layers.
	finish(out *metricSet, samples map[string]int, rec *recorder)
	probes(out *metricSet) error
	digests() map[string]string
	fixtureSHA() string
	// primaryClass is the sample class op_p50_ms is the median of.
	primaryClass() string
	// concurrent reports that a pass's operations overlap (several clients).
	concurrent() bool
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "sweep_dense":
		return &sweepDense{e: e}, nil
	case "sweep_pruned":
		return &sweepPruned{e: e}, nil
	case "sweep_stats":
		return &sweepStats{e: e}, nil
	case "train_mix":
		return &trainMix{e: e}, nil
	case "serve_mixed":
		return &serveMixed{e: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// runConfig is one child run: one workload, traced or not.
type runConfig struct {
	workload string
	pre      preset
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // scratch parent, inside the checkout
	outdir   string // where the trace is written
}

// parallelism is P = min(2, nproc): workers, clients and GOMAXPROCS.
func parallelism() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runWorkload sets the workload up, measures it, checks its outputs and
// returns the report.
func runWorkload(cfg runConfig) (*ledger.Report, error) {
	p := parallelism()
	runtime.GOMAXPROCS(p)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "kgbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e := &env{ctx: context.Background(), pre: cfg.pre, seed: cfg.seed, p: p, trace: cfg.trace}
	w, err := newWorkload(cfg.workload, e)
	if err != nil {
		return nil, err
	}

	// Set-up, several times over: setup_s is the median, and so is every
	// stage of it.
	st := stageTimes{}
	var setups []float64
	repeats := cfg.pre.setupRepeats[cfg.workload]
	for r := 0; r < repeats; r++ {
		if r > 0 {
			w.teardown()
			runtime.GC()
		}
		e.dir = filepath.Join(dir, fmt.Sprintf("setup-%d", r))
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		t := time.Now()
		if err := w.setup(st); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, seconds(time.Since(t)))
	}
	defer w.teardown()

	// The measured phase: whole passes until the time is up, never fewer
	// than minPasses. A traced run records spans on every second pass, so
	// the same process yields the traced-versus-untraced comparison.
	rec := newRecorder()
	ck := &checker{}
	minPasses := cfg.pre.minPasses
	if cfg.trace {
		minPasses = 2 * ((minPasses + 1) / 2)
		if minPasses < 2 {
			minPasses = 2
		}
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	phase := time.Now()
	for i := 0; i < minPasses || time.Since(phase) < budget; i++ {
		// Every pass starts from a collected heap, so what a pass pays in
		// GC is its own garbage and the resident set does not depend on
		// where the previous pass left the collector.
		runtime.GC()
		rec.beginPass(cfg.trace && i%2 == 1, w.concurrent())
		work := w.pass(i, rec, ck)
		rec.endPass(work)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	w.verify(ck)

	out := newMetricSet()
	samples := map[string]int{}
	out.set("setup_s", ledger.Median(setups))
	out.set("wall_s", rec.typicalPass(untracedOrAll(cfg.trace), false))
	out.set("cpu_s", rec.typicalPass(untracedOrAll(cfg.trace), true))
	p50, ops := rec.opP50(w.primaryClass(), untracedOrAll(cfg.trace))
	out.set("op_p50_ms", p50)
	out.set("peak_rss_mb", rss)
	samples["setup_s"] = len(setups)
	samples["wall_s"] = len(rec.passes)
	samples["op_p50_ms"] = ops
	for name, xs := range st {
		switch name {
		case "synth.generate":
			out.set("synth.generate_s", ledger.Median(xs))
		case "kg.load_dataset":
			out.set("kg.load_dataset_s", ledger.Median(xs))
		case "prune.build":
			// One build per pruned model and set-up; report one build.
			out.set("prune.build_ms", ledger.Median(xs)*1000)
		}
	}
	w.finish(out, samples, rec)
	if ck.attempted > 0 {
		out.set("failed_share", float64(ck.failed)/float64(ck.attempted))
	}
	if cfg.trace {
		if err := w.probes(out); err != nil {
			return nil, fmt.Errorf("%s probes: %w", cfg.workload, err)
		}
		traced := rec.typicalPass(tracedPass, false)
		untraced := rec.typicalPass(untracedPass, false)
		if untraced > 0 {
			out.set("trace.overhead_share", traced/untraced-1)
		}
		if err := writeTrace(cfg, rec); err != nil {
			return nil, err
		}
	}

	rep := &ledger.Report{
		Workload:      cfg.workload,
		Trace:         cfg.trace,
		FixtureSHA256: w.fixtureSHA(),
		Samples:       samples,
		Digests:       w.digests(),
		Notes:         ck.notes,
		Result: ledger.Result{
			Correct:   ck.failed == 0,
			Attempted: ck.attempted,
			Failed:    ck.failed,
			Metrics:   map[string]ledger.MetricValue{},
		},
		All: map[string]ledger.MetricValue{},
	}
	// The result line carries exactly the declared set for the mode: every
	// end-to-end metric untraced, every per-layer metric traced (0 where the
	// workload does not reach the layer). The report keeps all that was
	// measured.
	declared := endToEndMetrics
	if cfg.trace {
		declared = perLayerMetrics
	}
	for _, d := range declared {
		rep.Result.Metrics[d.name] = ledger.MetricValue{Value: out.values[d.name], Unit: d.unit}
	}
	for name, v := range out.values {
		rep.All[name] = ledger.MetricValue{Value: v, Unit: out.decl[name].unit}
	}
	return rep, nil
}

// untracedOrAll selects the passes the reported times come from: on a traced
// run only the untraced half, so tracing never touches a reported time.
func untracedOrAll(trace bool) func(*passRec) bool {
	if trace {
		return untracedPass
	}
	return nil
}

// writeTrace dumps the run's spans.
func writeTrace(cfg runConfig, rec *recorder) error {
	if err := os.MkdirAll(cfg.outdir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"workload": cfg.workload, "seed": cfg.seed, "spans": rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outdir, "trace-"+cfg.workload+".json"), b, 0o644)
}

// printReport writes every reported metric by name with its unit, then the
// contract's result line last.
func printReport(rep *ledger.Report) error {
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "untraced"
	if rep.Trace {
		mode = "traced"
	}
	fmt.Printf("workload %s (%s) fixture %.12s attempted %d failed %d\n", rep.Workload, mode, rep.FixtureSHA256, rep.Result.Attempted, rep.Result.Failed)
	for _, n := range names {
		m := rep.Result.Metrics[n]
		extra := ""
		if c, ok := rep.Samples[n]; ok {
			extra = fmt.Sprintf("  (n=%d, highest reportable percentile p%g)", c, ledger.HighestPercentile(c))
		}
		fmt.Printf("  %-40s %14.6g %s%s\n", n, m.Value, m.Unit, extra)
	}
	for _, note := range rep.Notes {
		fmt.Printf("  FAILED: %s\n", note)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
