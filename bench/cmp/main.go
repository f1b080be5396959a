// Command cmp diffs two kgbench ledgers against the bounds in BENCHMARK.json:
// one row per (end-to-end metric, workload) with a verdict, and a flag on
// every workload whose output digests changed at equal seed.
//
//	go run -C bench ./cmp results/LEDGER_a.json results/LEDGER_b.json
//
// The first ledger is the base (the parent commit), the second the change.
// Exit status 0 means no row is worse and no output changed, 1 that some did,
// 2 that the ledgers cannot be compared.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/bench/ledger"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmp:", err)
	}
	os.Exit(code)
}

// Verdicts of one (metric, workload) row.
const (
	// verdictSame: the change's median is no worse than the base's by more
	// than the bound.
	verdictSame = "same"
	// verdictWorse: it is worse by more than the bound.
	verdictWorse = "worse"
	// verdictUnresolved: the run-to-run spread of either side is wider than
	// the bound, so the medians cannot settle it either way.
	verdictUnresolved = "unresolved"
)

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("cmp", flag.ContinueOnError)
	specPath := fs.String("spec", "", "BENCHMARK.json (default: found upwards from the working directory)")
	layers := fs.Bool("layers", false, "also list the per-layer metrics (no bound, no verdict)")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if fs.NArg() != 2 {
		return 2, errors.New("usage: cmp [-spec BENCHMARK.json] [-layers] base-ledger.json new-ledger.json")
	}
	if *specPath == "" {
		p, err := findSpec()
		if err != nil {
			return 2, err
		}
		*specPath = p
	}
	spec, err := ledger.LoadSpec(*specPath)
	if err != nil {
		return 2, err
	}
	base, err := ledger.Load(fs.Arg(0))
	if err != nil {
		return 2, err
	}
	change, err := ledger.Load(fs.Arg(1))
	if err != nil {
		return 2, err
	}
	if err := comparable(base, change); err != nil {
		return 2, fmt.Errorf("refusing to compare: %w", err)
	}

	bad := false
	fmt.Fprintf(stdout, "base %s, change %s; P=%d seed=%d preset=%s\n", base.Meta.Commit, change.Meta.Commit, base.Meta.P, base.Meta.Seed, base.Meta.Preset)
	fmt.Fprintf(stdout, "%-13s %-14s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "base", "change", "worse by", "bound", "spread", "verdict")
	for _, w := range spec.Workloads {
		bw, cw := base.Workloads[w.Name], change.Workloads[w.Name]
		if bw == nil || cw == nil {
			return 2, fmt.Errorf("refusing to compare: workload %s is missing from a ledger", w.Name)
		}
		for _, m := range spec.EndToEnd {
			bs, cs := bw.Metrics[m.Name], cw.Metrics[m.Name]
			if bs == nil || cs == nil {
				return 2, fmt.Errorf("refusing to compare: %s on %s is missing from a ledger", m.Name, w.Name)
			}
			r := judge(m, bs.Values, cs.Values)
			if r.verdict == verdictWorse {
				bad = true
			}
			spread := "n/a"
			if r.spreadKnown {
				spread = fmt.Sprintf("%.1f%%", 100*r.spread)
			}
			fmt.Fprintf(stdout, "%-13s %-14s %14.6g %14.6g %8.1f%% %6.0f%% %8s  %s\n",
				w.Name, m.Name, r.base, r.change, 100*r.worseBy, 100*r.bound, spread, r.verdict)
		}
		if changed := changedDigests(bw.Digests, cw.Digests); len(changed) > 0 {
			bad = true
			fmt.Fprintf(stdout, "%-13s output_changed: digests %v differ at equal seed\n", w.Name, changed)
		}
		if cw.Failed > 0 {
			bad = true
			fmt.Fprintf(stdout, "%-13s failed: %d of %d operations and output checks in the change's ledger\n", w.Name, cw.Failed, cw.Attempted)
		}
		if *layers {
			for _, m := range spec.PerLayer {
				bs, cs := bw.Metrics[m.Name], cw.Metrics[m.Name]
				if bs == nil || cs == nil || (bs.Value() == 0 && cs.Value() == 0) {
					continue
				}
				fmt.Fprintf(stdout, "%-13s   %-38s %14.6g %14.6g %s\n", w.Name, m.Name, bs.Value(), cs.Value(), m.Unit)
			}
		}
	}
	if bad {
		return 1, nil
	}
	return 0, nil
}

// comparable refuses ledgers whose numbers were not measured on the same
// inputs and parallelism.
func comparable(a, b *ledger.Ledger) error {
	am, bm := a.Meta, b.Meta
	switch {
	case am.Schema != bm.Schema:
		return fmt.Errorf("schema version %d vs %d", am.Schema, bm.Schema)
	case am.P != bm.P:
		return fmt.Errorf("P %d vs %d", am.P, bm.P)
	case am.GOMAXPROCS != bm.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS %d vs %d", am.GOMAXPROCS, bm.GOMAXPROCS)
	case am.Seed != bm.Seed:
		return fmt.Errorf("seed %d vs %d", am.Seed, bm.Seed)
	case am.Preset != bm.Preset:
		return fmt.Errorf("preset %q vs %q", am.Preset, bm.Preset)
	}
	for name, aw := range a.Workloads {
		if bw := b.Workloads[name]; bw != nil && aw.FixtureSHA256 != bw.FixtureSHA256 {
			return fmt.Errorf("fixture of %s is %.12s vs %.12s", name, aw.FixtureSHA256, bw.FixtureSHA256)
		}
	}
	return nil
}

type row struct {
	base, change, worseBy, bound float64
	spread                       float64
	spreadKnown                  bool
	verdict                      string
}

// judge compares the medians of one metric's values on both sides. The
// spread is the wider of the two sides' quartile spreads; it is unknown when
// a side has a single run, and the bound alone then decides.
func judge(m ledger.Metric, base, change []float64) row {
	r := row{base: ledger.Median(base), change: ledger.Median(change)}
	if m.Bound != nil {
		r.bound = *m.Bound
	}
	if r.base != 0 {
		r.worseBy = (r.change - r.base) / r.base
		if m.Better == "higher" {
			r.worseBy = -r.worseBy
		}
	}
	for _, xs := range [][]float64{base, change} {
		if s, ok := ledger.Spread(xs); ok {
			r.spreadKnown = true
			if s > r.spread {
				r.spread = s
			}
		}
	}
	switch {
	case r.spreadKnown && r.spread > r.bound:
		r.verdict = verdictUnresolved
	case r.worseBy > r.bound:
		r.verdict = verdictWorse
	default:
		r.verdict = verdictSame
	}
	return r
}

// changedDigests lists the digest names whose values differ (or that only
// one side has), sorted.
func changedDigests(a, b map[string]string) []string {
	var out []string
	for k, v := range a {
		if b[k] != v {
			out = append(out, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// findSpec looks for BENCHMARK.json in the working directory and its
// parents.
func findSpec() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json here or above; pass -spec")
		}
		dir = parent
	}
}
