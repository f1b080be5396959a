package repro

// Golden digests: checked-in checkpoint fingerprints, discovery hashes and
// link-prediction metrics for a fixed seed matrix. Byte-identity between two paths only says they
// agree with each other; this file says what they must agree on, so a
// refactor that changes float operation order anywhere in scoring or
// training fails here even when every path moved together. Keys keep the
// "/batched/" segment from when a scalar trainer and a per-group ranking
// scheduler were pinned beside the surviving paths, so the surviving rows
// are byte for byte the rows those paths were first pinned with. testdata/golden_digests.txt is regenerated only on purpose
// (go test -run TestGoldenDigests -update-golden .), and its diff is reviewed
// like code.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/prune"
	"repro/internal/synth"
	"repro/internal/train"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.txt from the current code")

const goldenPath = "testdata/golden_digests.txt"

func goldenDataset(t *testing.T) *kg.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Name:         "golden",
		NumEntities:  150,
		NumRelations: 4,
		NumTriples:   900,
		NumTypes:     4,
		EntityZipf:   1.0,
		RelationZipf: 0.8,
		ClosureProb:  0.2,
		NoiseProb:    0.05,
		ValidFrac:    0.05,
		TestFrac:     0.05,
		Seed:         41,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds
}

// goldenTrain trains a fresh model for two epochs with Adam and no weight
// decay.
func goldenTrain(t *testing.T, ds *kg.Dataset, name string, kvsAll bool, workers int) kge.Model {
	t.Helper()
	m := goldenModel(t, ds, name, 8)
	goldenRun(t, m, ds, kvsAll, goldenConfig(workers))
	return m
}

func goldenModel(t *testing.T, ds *kg.Dataset, name string, dim int) kge.Model {
	t.Helper()
	cfg := kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          dim,
		Seed:         3,
	}
	m, err := kge.New(name, cfg)
	if err != nil {
		t.Fatalf("new %s: %v", name, err)
	}
	return m
}

// goldenConfig is two epochs of BatchSize 48: three gradient chunks per
// batch, so the worker count has something to permute.
func goldenConfig(workers int) train.Config {
	return train.Config{Epochs: 2, BatchSize: 48, NegSamples: 4, Workers: workers, Seed: 9}
}

func goldenRun(t *testing.T, m kge.Model, ds *kg.Dataset, kvsAll bool, tcfg train.Config) {
	t.Helper()
	var err error
	ctx := context.Background()
	if kvsAll {
		_, err = train.RunKvsAll(ctx, m, ds, tcfg, 0.1)
	} else {
		_, err = train.Run(ctx, m, ds, tcfg)
	}
	if err != nil {
		t.Fatalf("train %s: %v", m.Name(), err)
	}
}

// factsDigest hashes the discovered facts (triple and rank) in sorted order.
func factsDigest(facts []core.Fact) string {
	lines := make([]string, len(facts))
	for i, f := range facts {
		lines[i] = fmt.Sprintf("%08d %08d %08d %d", f.Triple.R, f.Triple.S, f.Triple.O, f.Rank)
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%s n=%d", hex.EncodeToString(h[:]), len(facts))
}

func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are pinned on amd64: other ports fuse multiply-adds, which changes float bits")
	}
	ds := goldenDataset(t)
	got := map[string]string{}
	models := kge.ModelNames()

	// (a) Checkpoint fingerprints: models x objective x workers.
	for _, name := range models {
		for _, obj := range []string{"negsample", "kvsall"} {
			for _, workers := range []int{1, 4} {
				m := goldenTrain(t, ds, name, obj == "kvsall", workers)
				key := fmt.Sprintf("checkpoint/%s/%s/batched/w%d", name, obj, workers)
				got[key] = kge.Fingerprint(m)
			}
		}
	}

	// (a') The optimizer step beyond Adam at L2 = 0: the other two optimizers,
	// Adam with weight decay, and TransE trained by two consecutive runs with
	// its entity table edited in between — every third row scaled by 3, so the
	// second run's first step must project rows that no step touched.
	steps := []struct {
		name string
		set  func(*train.Config)
	}{
		{"sgd", func(c *train.Config) { c.Optimizer = train.NewSGD(0.05) }},
		{"adagrad", func(c *train.Config) { c.Optimizer = train.NewAdagrad(0.05) }},
		{"adam-l2", func(c *train.Config) { c.L2 = 0.01 }},
	}
	for _, name := range models {
		for _, obj := range []string{"negsample", "kvsall"} {
			for _, workers := range []int{1, 4} {
				for _, s := range steps {
					m := goldenModel(t, ds, name, 8)
					tcfg := goldenConfig(workers)
					s.set(&tcfg)
					goldenRun(t, m, ds, obj == "kvsall", tcfg)
					got[fmt.Sprintf("checkpoint/%s/%s/%s/w%d", name, obj, s.name, workers)] = kge.Fingerprint(m)
				}
				if name != "transe" {
					continue
				}
				m := goldenModel(t, ds, name, 8)
				goldenRun(t, m, ds, obj == "kvsall", goldenConfig(workers))
				ent := m.Params().Get("entity").M
				for row := 0; row < ent.Rows; row += 3 {
					for i, v := range ent.Row(row) {
						ent.Row(row)[i] = 3 * v
					}
				}
				tcfg := goldenConfig(workers)
				tcfg.Seed = 10
				goldenRun(t, m, ds, obj == "kvsall", tcfg)
				got[fmt.Sprintf("checkpoint/%s/%s/rerun/w%d", name, obj, workers)] = kge.Fingerprint(m)
			}
		}
	}

	// (a'') The six models at Dim 64, where the training loops run at lane
	// width: ConvE's 8×8 input gives a convolution 6 columns wide and an fc
	// layer of 64 rows × 672, and the KvsAll step's rows are four 16-column
	// blocks. At Dim 8 the convolution is 2 columns wide.
	for _, name := range kge.ModelNames() {
		for _, obj := range []string{"negsample", "kvsall"} {
			for _, workers := range []int{1, 4} {
				m := goldenModel(t, ds, name, 64)
				goldenRun(t, m, ds, obj == "kvsall", goldenConfig(workers))
				got[fmt.Sprintf("checkpoint/%s/%s/d64/w%d", name, obj, workers)] = kge.Fingerprint(m)
			}
		}
	}

	// (a''') HolE at two widths that are not powers of two: 7 is one
	// four-output block of vecmath's circular kernels plus a three-output
	// tail, and 63 is fifteen blocks plus the same tail.
	for _, dim := range []int{7, 63} {
		for _, obj := range []string{"negsample", "kvsall"} {
			for _, workers := range []int{1, 4} {
				m := goldenModel(t, ds, "hole", dim)
				goldenRun(t, m, ds, obj == "kvsall", goldenConfig(workers))
				got[fmt.Sprintf("checkpoint/hole/%s/d%d/w%d", obj, dim, workers)] = kge.Fingerprint(m)
			}
		}
	}

	// (b) Discovery: models x protocol x ranking path, on the
	// negative-sampling checkpoint. TopN is far below |E| so exact pruning
	// searches instead of falling back to the dense sweep.
	for _, name := range models {
		m := goldenTrain(t, ds, name, false, 1)
		ix, err := prune.Build(m, kge.Fingerprint(m), prune.Params{})
		if err != nil {
			t.Fatalf("prune index %s: %v", name, err)
		}
		paths := []struct {
			name string
			set  func(*core.Options)
		}{
			{"batched", func(*core.Options) {}},
			{"prune-exact", func(o *core.Options) { o.PruneMode, o.PruneIndex = core.PruneExact, ix }},
		}
		for _, protocol := range []string{"raw", "filtered"} {
			for _, p := range paths {
				opts := core.Options{
					TopN: 12, MaxCandidates: 150, Seed: 5, Workers: 2,
					RankFiltered: protocol == "filtered",
				}
				p.set(&opts)
				res, err := core.DiscoverFacts(context.Background(), m, ds.Train, core.NewEntityFrequency(), opts)
				if err != nil {
					t.Fatalf("discover %s/%s/%s: %v", name, protocol, p.name, err)
				}
				got[fmt.Sprintf("discover/%s/%s/%s", name, protocol, p.name)] = factsDigest(res.Facts)
			}
		}
	}

	// (c) Node-statistic strategies on the default ranking path: the weights
	// come from internal/graphstats, so these pin the projection and the
	// triangle, clustering and square kernels through to the sampled facts.
	m := goldenTrain(t, ds, "distmult", false, 1)
	for _, strat := range []core.Strategy{
		core.NewGraphDegree(), core.NewClusteringTriangles(),
		core.NewClusteringCoefficient(), core.NewClusteringSquares(),
	} {
		for _, protocol := range []string{"raw", "filtered"} {
			opts := core.Options{
				TopN: 12, MaxCandidates: 150, Seed: 5, Workers: 2,
				RankFiltered: protocol == "filtered",
			}
			res, err := core.DiscoverFacts(context.Background(), m, ds.Train, strat, opts)
			if err != nil {
				t.Fatalf("discover distmult/%s/%s: %v", protocol, strat.Name(), err)
			}
			got[fmt.Sprintf("discover/distmult/%s/%s", protocol, strat.Name())] = factsDigest(res.Facts)
		}
	}

	// (d) The link-prediction protocol (eval.Evaluate) on the test split:
	// models x protocol x sides, every aggregate at full float64 precision.
	// Ranks are integers, so any change here is a changed rank or a changed
	// aggregation order, not noise.
	for _, name := range models {
		m := goldenTrain(t, ds, name, false, 1)
		for _, protocol := range []string{"raw", "filtered"} {
			var filter *kg.Graph
			if protocol == "filtered" {
				filter = ds.All()
			}
			for _, sides := range []string{"object", "both"} {
				res := eval.Evaluate(eval.NewRanker(m, filter), ds.Test,
					eval.Options{BothSides: sides == "both", Workers: 2})
				got[fmt.Sprintf("evaluate/%s/%s/%s", name, protocol, sides)] = fmt.Sprintf(
					"mrr=%.17g mean_rank=%.17g hits@1=%.17g hits@3=%.17g hits@10=%.17g n=%d",
					res.MRR, res.MeanRank, res.Hits[1], res.Hits[3], res.Hits[10], res.N)
			}
		}
	}

	// (e) Exhaustive discovery, the complement baseline: models x protocol x
	// rules (none, or DefaultRules), on the negative-sampling checkpoint.
	for _, name := range models {
		m := goldenTrain(t, ds, name, false, 1)
		for _, protocol := range []string{"raw", "filtered"} {
			for _, rules := range []string{"norules", "defaultrules"} {
				opts := core.ExhaustiveOptions{TopN: 12, Workers: 2, RankFiltered: protocol == "filtered"}
				if rules == "defaultrules" {
					opts.Rules = core.DefaultRules(ds.Train)
				}
				res, _, err := core.ExhaustiveDiscover(context.Background(), m, ds.Train, opts)
				if err != nil {
					t.Fatalf("exhaustive %s/%s/%s: %v", name, protocol, rules, err)
				}
				got[fmt.Sprintf("exhaustive/%s/%s/%s", name, protocol, rules)] = factsDigest(res.Facts)
			}
		}
	}

	if *updateGolden {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	for key, w := range want {
		g, ok := got[key]
		switch {
		case !ok:
			t.Errorf("%s: pinned but no longer computed", key)
		case g != w:
			t.Errorf("%s: digest changed\n  pinned %s\n  got    %s", key, w, g)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: computed but not pinned (run with -update-golden and review the diff)", key)
		}
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, digest, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("golden file: malformed line %q", line)
		}
		want[key] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	return want
}

func writeGolden(t *testing.T, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# Pinned by TestGoldenDigests (golden_test.go). Do not edit by hand.\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%s\n", k, got[k])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
