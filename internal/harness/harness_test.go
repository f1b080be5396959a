package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testRunner builds a Runner at miniature scale so harness tests stay fast.
func testRunner(t *testing.T) *Runner {
	t.Helper()
	return NewRunner(Config{
		Scale:         300,
		Models:        []string{"distmult"},
		Strategies:    []string{"uniform_random", "entity_frequency"},
		Dim:           8,
		Epochs:        3,
		TopN:          50,
		MaxCandidates: 50,
		Seed:          1,
	})
}

func TestTable1OrderingsMatchPaper(t *testing.T) {
	r := testRunner(t)
	var buf bytes.Buffer
	metas, err := r.Table1(&buf, "")
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(metas) != 4 {
		t.Fatalf("rows = %d, want 4", len(metas))
	}
	byName := map[string]int{}
	for i, m := range metas {
		byName[m.Name] = i
		if m.Train == 0 || m.Entities == 0 || m.Relations == 0 {
			t.Errorf("degenerate metadata: %+v", m)
		}
	}
	fb := metas[byName["fb15k237-sim"]]
	wn := metas[byName["wn18rr-sim"]]
	yago := metas[byName["yago310-sim"]]
	codex := metas[byName["codexl-sim"]]
	// Relation counts are the paper's exactly.
	if fb.Relations != 237 || wn.Relations != 11 || yago.Relations != 37 || codex.Relations != 69 {
		t.Errorf("relation counts: fb=%d wn=%d yago=%d codex=%d", fb.Relations, wn.Relations, yago.Relations, codex.Relations)
	}
	// Largest training split: YAGO.
	if !(yago.Train > codex.Train && codex.Train > fb.Train) {
		t.Errorf("train size ordering broken: yago=%d codex=%d fb=%d", yago.Train, codex.Train, fb.Train)
	}
	if !strings.Contains(buf.String(), "fb15k237-sim") {
		t.Error("table output missing dataset name")
	}
}

func TestDatasetCached(t *testing.T) {
	r := testRunner(t)
	a, err := r.Dataset("wn18rr-sim")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Dataset("wn18rr-sim")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Dataset not cached")
	}
	if _, err := r.Dataset("nope"); err == nil {
		t.Error("accepted unknown dataset")
	}
}

func TestModelTrainingAndDiskCache(t *testing.T) {
	dir := t.TempDir()
	cfg := testRunner(t).Cfg
	cfg.CacheDir = dir
	r := NewRunner(cfg)
	ctx := context.Background()
	m1, err := r.Model(ctx, "wn18rr-sim", "distmult")
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir entries = %d (%v), want 1", len(entries), err)
	}
	// A fresh runner must load from disk and produce identical scores.
	r2 := NewRunner(cfg)
	m2, err := r2.Model(ctx, "wn18rr-sim", "distmult")
	if err != nil {
		t.Fatalf("Model (cached): %v", err)
	}
	ds, _ := r2.Dataset("wn18rr-sim")
	probe := ds.Train.Triples()[0]
	if m1.Score(probe) != m2.Score(probe) {
		t.Error("disk-cached model scores differ")
	}
}

func TestFig3ClusteringOrdering(t *testing.T) {
	r := testRunner(t)
	var buf bytes.Buffer
	sums, err := r.Fig3(&buf, "")
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	means := map[string]float64{}
	for _, s := range sums {
		means[s.Dataset] = s.Mean
		if s.Nodes == 0 {
			t.Errorf("%s: no nodes", s.Dataset)
		}
	}
	// Figure 3's headline: WN18RR has the lowest clustering; FB the highest.
	if !(means["fb15k237-sim"] > means["wn18rr-sim"]) {
		t.Errorf("fb mean %.4f should exceed wn mean %.4f", means["fb15k237-sim"], means["wn18rr-sim"])
	}
	if !(means["yago310-sim"] > means["wn18rr-sim"]) {
		t.Errorf("yago mean %.4f should exceed wn mean %.4f", means["yago310-sim"], means["wn18rr-sim"])
	}
}

func TestFig5SeriesAndWeakCorrelation(t *testing.T) {
	r := testRunner(t)
	var buf bytes.Buffer
	series, err := r.Fig5(&buf, "")
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(series.Triangles) != len(series.Clustering) || len(series.Triangles) == 0 {
		t.Fatalf("series lengths: %d vs %d", len(series.Triangles), len(series.Clustering))
	}
	// Figure 5's argument: the two node statistics are weakly correlated.
	if series.Correlation > 0.6 {
		t.Errorf("triangles and clustering coefficient strongly correlated (%.3f); the paper's argument needs weak correlation", series.Correlation)
	}
}

func TestSweepAndFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	r := testRunner(t)
	records, err := r.RunSweep(context.Background())
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	want := 4 * len(r.Cfg.Models) * len(r.Cfg.Strategies)
	if len(records) != want {
		t.Fatalf("records = %d, want %d", len(records), want)
	}
	for _, rec := range records {
		if rec.Runtime <= 0 {
			t.Errorf("%s/%s/%s: no runtime", rec.Dataset, rec.Model, rec.Strategy)
		}
		if rec.MRR < 0 || rec.MRR > 1 {
			t.Errorf("%s/%s/%s: MRR %g out of range", rec.Dataset, rec.Model, rec.Strategy, rec.MRR)
		}
		if rec.Facts > rec.Generated {
			t.Errorf("%s/%s/%s: more facts (%d) than candidates (%d)", rec.Dataset, rec.Model, rec.Strategy, rec.Facts, rec.Generated)
		}
	}

	outDir := t.TempDir()
	var buf bytes.Buffer
	if err := r.Fig2(&buf, outDir, records); err != nil {
		t.Fatalf("Fig2: %v", err)
	}
	if err := r.Fig4(&buf, outDir, records); err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	if err := r.Fig6(&buf, outDir, records); err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	for _, f := range []string{"fig2_runtime.csv", "fig4_mrr.csv", "fig6_efficiency.csv",
		"fig2_runtime_fb15k237-sim.svg", "fig4_mrr_wn18rr-sim.svg", "fig6_efficiency_codexl-sim.svg"} {
		if _, err := os.Stat(filepath.Join(outDir, f)); err != nil {
			t.Errorf("missing output %s: %v", f, err)
		}
	}
	if !strings.Contains(buf.String(), "Figure 2") || !strings.Contains(buf.String(), "facts/h") {
		t.Error("figure output incomplete")
	}
}

func TestRunGridShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration grid")
	}
	r := testRunner(t)
	records, err := r.RunGrid(context.Background(), "uniform_random", []int{10, 30}, []int{20, 40})
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	if len(records) != 4 {
		t.Fatalf("grid cells = %d, want 4", len(records))
	}
	var buf bytes.Buffer
	outDir := t.TempDir()
	if err := r.Fig7(&buf, outDir, records); err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if err := r.Fig8(&buf, outDir, records); err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	if err := r.Fig9And10(&buf, outDir, records); err != nil {
		t.Fatalf("Fig9And10: %v", err)
	}
	if !strings.Contains(buf.String(), "top_n") {
		t.Error("grid output missing axis header")
	}
}

func TestSquaresExclusionOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration squares")
	}
	defer func(d time.Duration) { squaresSample = d }(squaresSample)
	squaresSample = time.Millisecond
	r := testRunner(t)
	var buf bytes.Buffer
	records, err := r.SquaresExclusion(context.Background(), &buf, "")
	if err != nil {
		t.Fatalf("SquaresExclusion: %v", err)
	}
	byName := map[string]SquaresRecord{}
	for _, rec := range records {
		byName[rec.Strategy] = rec
	}
	squares := byName["cluster_squares"]
	uniform := byName["uniform_random"]
	if squares.PerRelation <= uniform.PerRelation {
		t.Errorf("squares (%v) not slower than uniform (%v)", squares.PerRelation, uniform.PerRelation)
	}
	if squares.FullRunEstimate < squares.PerRelation {
		t.Error("extrapolated estimate smaller than one relation's cost")
	}
}

func TestRenderTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	RenderTable(&buf, []string{"a", "bbbb"}, [][]string{{"xxxxx", "1"}, {"y", "22"}})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[1], "-----") {
		t.Errorf("separator line malformed: %q", lines[1])
	}
}

func TestWriteCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "out.csv")
	if err := WriteCSV(path, []string{"h1", "h2"}, [][]string{{"a", "b"}}); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data); got != "h1,h2\na,b\n" {
		t.Errorf("csv = %q", got)
	}
}

func TestRenderBars(t *testing.T) {
	var buf bytes.Buffer
	RenderBars(&buf, "title:", []string{"x", "y"}, []float64{1, 2}, "u")
	out := buf.String()
	if !strings.Contains(out, "title:") || !strings.Contains(out, "█") {
		t.Errorf("bars output: %q", out)
	}
	// Zero values must not crash or divide by zero.
	buf.Reset()
	RenderBars(&buf, "t", []string{"z"}, []float64{0}, "u")
}

func TestConfigDefaults(t *testing.T) {
	r := NewRunner(Config{})
	c := r.Cfg
	if c.Scale != 10 || c.Dim != 32 || c.Epochs != 25 || c.TopN != 500 || c.MaxCandidates != 500 || c.Seed != 1 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if len(c.Models) != 5 || len(c.Strategies) != 5 {
		t.Errorf("default model/strategy lists wrong: %v / %v", c.Models, c.Strategies)
	}
}

func TestGridValueListsMatchPaper(t *testing.T) {
	// §4.3.1: max_candidates ∈ {50,100,200,300,400,500,700},
	// top_n ∈ {100,200,300,400,500,700}.
	tn := GridTopNs()
	mc := GridMaxCandidates()
	if len(tn) != 6 || tn[0] != 100 || tn[len(tn)-1] != 700 {
		t.Errorf("GridTopNs = %v", tn)
	}
	if len(mc) != 7 || mc[0] != 50 || mc[len(mc)-1] != 700 {
		t.Errorf("GridMaxCandidates = %v", mc)
	}
}

func TestEffectiveTopN(t *testing.T) {
	cfg := testRunner(t).Cfg
	cfg.TopN = 500
	r := NewRunner(cfg)
	if got := r.effectiveTopN(1000); got != 500 {
		t.Errorf("absolute top_n = %d, want 500", got)
	}
	cfg.TopNFraction = 0.05
	r = NewRunner(cfg)
	if got := r.effectiveTopN(1000); got != 50 {
		t.Errorf("fractional top_n = %d, want 50", got)
	}
	if got := r.effectiveTopN(3); got != 1 {
		t.Errorf("floor top_n = %d, want 1", got)
	}
}

func TestRunnerLogging(t *testing.T) {
	var log bytes.Buffer
	cfg := testRunner(t).Cfg
	cfg.Log = &log
	r := NewRunner(cfg)
	if _, err := r.Dataset("wn18rr-sim"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "wn18rr-sim") {
		t.Error("progress log empty with Log configured")
	}
}

func TestPaperListsAreConsistent(t *testing.T) {
	if len(PaperModels()) != 5 {
		t.Errorf("paper models = %v, want 5 entries", PaperModels())
	}
	if len(PaperStrategies()) != 5 {
		t.Errorf("paper strategies = %v, want 5 entries", PaperStrategies())
	}
	if len(DatasetNames()) != 4 {
		t.Errorf("datasets = %v, want 4 entries", DatasetNames())
	}
}
