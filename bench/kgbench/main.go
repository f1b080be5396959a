// Command kgbench is the repository's benchmark: five named workloads over
// the whole pipeline (generate → train → discover → serve), each reporting
// the end-to-end metrics and, on a traced run, the per-layer metrics declared
// in BENCHMARK.json, with the outputs checked.
//
// One workload, as the benchmark contract runs it:
//
//	kgbench --workload sweep_dense --seed 1 --seconds 8 --trace 0
//
// Every workload, untraced then traced, into one ledger:
//
//	kgbench -all -ledger bench/results/LEDGER.json
//
// See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/bench/ledger"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kgbench:", err)
		os.Exit(1)
	}
}

// errFailed makes the exit status non-zero when operations or output checks
// failed, after the report has been printed.
type errFailed struct{ failed, attempted int }

func (e errFailed) Error() string {
	return fmt.Sprintf("%d of %d operations and output checks failed", e.failed, e.attempted)
}

func run(args []string) error {
	fs := flag.NewFlagSet("kgbench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run this one workload and print the contract's result line last")
		seed         = fs.Int64("seed", 1, "seed every input is generated from")
		secs         = fs.Float64("seconds", 8, "how long the measured phase lasts (whole passes, at least the preset's minimum)")
		trace        = fs.Int("trace", 0, "1 records spans on every second pass and runs the layer probes; the result line then carries the per-layer metrics")
		presetName   = fs.String("preset", "full", "sizes: full or smoke")
		all          = fs.Bool("all", false, "run every workload, untraced then traced, each in a child process, and write a ledger")
		smoke        = fs.Bool("smoke", false, "-all on the smoke preset: same code paths, a few seconds")
		runs         = fs.Int("runs", 1, "with -all: how many times to run each workload (the ledger keeps every value)")
		spread       = fs.Int("spread", 0, "run every workload this many times untraced, each on another seed (seed, seed+1, …), and print each end-to-end metric's quartile spread: the contract's steadiness check")
		ledgerPath   = fs.String("ledger", "", "with -all: where to write the ledger (default <outdir>/ledger.json)")
		workdir      = fs.String("workdir", filepath.Join(".bench_build", "tmp"), "scratch directory")
		outdir       = fs.String("outdir", filepath.Join(".bench_build", "out"), "where traces and the default ledger go")
		reportPath   = fs.String("report", "", "also write the run's full report as JSON here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *smoke {
		*all = true
		*presetName = "smoke"
		*secs = 0
	}
	pre, err := presetByName(*presetName)
	if err != nil {
		return err
	}
	if *spread > 0 {
		return runSpread(pre, *seed, *secs, *spread, *workdir, *outdir)
	}
	if *all {
		if *ledgerPath == "" {
			*ledgerPath = filepath.Join(*outdir, "ledger.json")
		}
		return runAll(pre, *seed, *secs, *runs, *ledgerPath, *workdir, *outdir)
	}
	if *workloadName == "" {
		return fmt.Errorf("need -workload <name>, -all or -smoke; workloads are %v", workloadNames)
	}
	rep, err := runWorkload(runConfig{
		workload: *workloadName, pre: pre, seed: *seed, seconds: *secs,
		trace: *trace != 0, workdir: *workdir, outdir: *outdir,
	})
	if err != nil {
		return err
	}
	if *reportPath != "" {
		b, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportPath, b, 0o644); err != nil {
			return err
		}
	}
	if err := printReport(rep); err != nil {
		return err
	}
	if rep.Result.Failed > 0 {
		return errFailed{rep.Result.Failed, rep.Result.Attempted}
	}
	return nil
}

// runAll is the ledger run: every workload in a fresh child process of this
// binary, sequentially, untraced then traced, runs times over.
func runAll(pre preset, seed int64, secs float64, runs int, ledgerPath, workdir, outdir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	p := parallelism()
	led := &ledger.Ledger{
		Meta: ledger.Meta{
			Schema: ledger.SchemaVersion, Commit: gitCommit(), GoVersion: runtime.Version(),
			GOMAXPROCS: p, NProc: runtime.NumCPU(), CPU: cpuModel(), P: p,
			Seed: seed, Seconds: int(secs), Runs: runs, Preset: pre.name,
			Parallelism: "p workers share the load generator's cores: fleet.* and multi-worker numbers are overhead, not scaling",
		},
		Workloads: map[string]*ledger.WorkloadRecord{},
	}
	if led.Meta.NProc == 1 {
		led.Meta.Parallelism = "nproc is 1: every multi-worker number is contention overhead, never scaling"
	}
	failed, attempted := 0, 0
	for r := 0; r < runs; r++ {
		for _, name := range workloadNames {
			var reps [2]*ledger.Report
			for t := 0; t < 2; t++ {
				reps[t], err = runChild(self, name, pre, seed, secs, t, workdir, outdir, os.Stdout)
				if err != nil {
					return err
				}
				failed += reps[t].Result.Failed
				attempted += reps[t].Result.Attempted
			}
			merge(led, name, reps[0], reps[1])
		}
	}
	if err := led.Save(ledgerPath); err != nil {
		return err
	}
	fmt.Printf("ledger written to %s (%d workloads × %d runs, %d metrics declared)\n",
		ledgerPath, len(workloadNames), runs, len(endToEndMetrics)+len(perLayerMetrics))
	if failed > 0 {
		return errFailed{failed, attempted}
	}
	return nil
}

// runChild runs one workload in a fresh process of this binary and returns
// its report.
func runChild(self, name string, pre preset, seed int64, secs float64, trace int, workdir, outdir string, stdout io.Writer) (*ledger.Report, error) {
	report := filepath.Join(outdir, fmt.Sprintf("report-%s-%d.json", name, trace))
	cmd := exec.Command(self,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs), "-trace", fmt.Sprint(trace),
		"-preset", pre.name, "-workdir", workdir, "-outdir", outdir, "-report", report)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(report)
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d) left no report: %v (%v)", name, trace, err, runErr)
	}
	os.Remove(report)
	rep := new(ledger.Report)
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s (trace %d) report: %w", name, trace, err)
	}
	return rep, nil
}

// runSpread is the contract's steadiness check: n untraced runs of every
// workload, each on another seed, and per end-to-end metric the distance
// between the first and third quartile as a share of the median.
func runSpread(pre preset, seed int64, secs float64, n int, workdir, outdir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	failed, attempted := 0, 0
	fmt.Printf("%-13s %-12s %14s %9s  values\n", "workload", "metric", "median", "spread")
	for _, name := range workloadNames {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			rep, err := runChild(self, name, pre, seed+int64(i), secs, 0, workdir, outdir, io.Discard)
			if err != nil {
				return err
			}
			failed += rep.Result.Failed
			attempted += rep.Result.Attempted
			for k, v := range rep.Result.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		for _, d := range endToEndMetrics {
			xs := values[d.name]
			sp, _ := ledger.Spread(xs)
			fmt.Printf("%-13s %-12s %14.6g %8.1f%%  %.4g\n", name, d.name, ledger.Median(xs), 100*sp, xs)
		}
	}
	if failed > 0 {
		return errFailed{failed, attempted}
	}
	return nil
}

// merge files one workload's untraced and traced reports into the ledger. A
// metric both runs measured is taken from the untraced one: tracing may
// never touch a number that has an untraced source.
func merge(led *ledger.Ledger, name string, untraced, traced *ledger.Report) {
	w := led.Workloads[name]
	if w == nil {
		w = &ledger.WorkloadRecord{Metrics: map[string]*ledger.Series{}}
		led.Workloads[name] = w
	}
	w.FixtureSHA256 = untraced.FixtureSHA256
	w.Attempted += untraced.Result.Attempted + traced.Result.Attempted
	w.Failed += untraced.Result.Failed + traced.Result.Failed
	w.Notes = append(append(w.Notes, untraced.Notes...), traced.Notes...)
	w.Digests = untraced.Digests
	for k, d := range traced.Digests {
		if untraced.Digests[k] != d {
			w.Failed++
			w.Notes = append(w.Notes, fmt.Sprintf("digest %s differs between the untraced and the traced run", k))
		}
	}
	w.Samples = traced.Samples
	for k, n := range untraced.Samples {
		w.Samples[k] = n
	}
	values := traced.All
	for k, v := range untraced.All {
		values[k] = v
	}
	for k, v := range values {
		s := w.Metrics[k]
		if s == nil {
			s = &ledger.Series{Unit: v.Unit}
			w.Metrics[k] = s
		}
		s.Values = append(s.Values, v.Value)
	}
}

// gitCommit names the commit the numbers belong to; "-dirty" when the
// working tree differs from it.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
