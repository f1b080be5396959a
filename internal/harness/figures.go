package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graphstats"
	"repro/internal/kg"
	"repro/internal/plot"
)

// Table1 renders the dataset metadata table (paper Table 1) for the
// simulated datasets and returns the metadata rows. When outDir is
// non-empty, a CSV copy is written.
func (r *Runner) Table1(w io.Writer, outDir string) ([]kg.Metadata, error) {
	var metas []kg.Metadata
	var rows [][]string
	for _, name := range DatasetNames() {
		ds, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		m := ds.Metadata()
		metas = append(metas, m)
		rows = append(rows, []string{
			m.Name,
			fmt.Sprintf("%d", m.Train),
			fmt.Sprintf("%d", m.Validation),
			fmt.Sprintf("%d", m.Test),
			fmt.Sprintf("%d", m.Entities),
			fmt.Sprintf("%d", m.Relations),
		})
	}
	headers := []string{"Dataset", "Training", "Validation", "Test", "Entities", "Relations"}
	fmt.Fprintf(w, "Table 1: Metadata of the simulated datasets (scale 1/%d).\n\n", r.Cfg.Scale)
	RenderTable(w, headers, rows)
	if outDir != "" {
		if err := WriteCSV(filepath.Join(outDir, "table1.csv"), headers, rows); err != nil {
			return nil, err
		}
	}
	return metas, nil
}

// sweepFigure renders one projection of the sweep (Figure 2, 4 or 6): a
// strategy × model table per dataset plus per-strategy averages as bars.
func sweepFigure(w io.Writer, outDir, fileName, title, unit string,
	records []SweepRecord, models, strategies []string, value func(SweepRecord) float64) error {

	byKey := make(map[string]SweepRecord, len(records))
	datasets := orderedDatasets(records)
	for _, rec := range records {
		byKey[rec.Dataset+"/"+rec.Model+"/"+rec.Strategy] = rec
	}

	var csvRows [][]string
	fmt.Fprintf(w, "%s\n", title)
	for _, ds := range datasets {
		fmt.Fprintf(w, "\n(%s)\n", ds)
		headers := append([]string{"strategy"}, models...)
		var rows [][]string
		stratAvg := make([]float64, len(strategies))
		for si, st := range strategies {
			row := []string{st}
			var sum float64
			var n int
			for _, mo := range models {
				rec, ok := byKey[ds+"/"+mo+"/"+st]
				if !ok {
					row = append(row, "-")
					continue
				}
				v := value(rec)
				sum += v
				n++
				row = append(row, fmt.Sprintf("%.4g", v))
				csvRows = append(csvRows, []string{ds, mo, st, fmt.Sprintf("%g", v)})
			}
			if n > 0 {
				stratAvg[si] = sum / float64(n)
			}
			rows = append(rows, row)
		}
		RenderTable(w, headers, rows)
		fmt.Fprintln(w)
		RenderBars(w, fmt.Sprintf("  average over models (%s):", unit), strategies, stratAvg, unit)

		if outDir != "" {
			values := make([][]float64, len(models))
			for mi, mo := range models {
				values[mi] = make([]float64, len(strategies))
				for si, st := range strategies {
					if rec, ok := byKey[ds+"/"+mo+"/"+st]; ok {
						values[mi][si] = value(rec)
					}
				}
			}
			chart := plot.BarChart{
				Title:  fmt.Sprintf("%s (%s)", title, ds),
				XLabel: "strategy",
				YLabel: unit,
				Groups: strategies,
				Series: models,
				Values: values,
			}
			svgName := strings.TrimSuffix(fileName, ".csv") + "_" + ds + ".svg"
			if err := plot.WriteFile(filepath.Join(outDir, svgName), chart.Render()); err != nil {
				return err
			}
		}
	}
	if outDir != "" {
		return WriteCSV(filepath.Join(outDir, fileName),
			[]string{"dataset", "model", "strategy", "value"}, csvRows)
	}
	return nil
}

func orderedDatasets(records []SweepRecord) []string {
	seen := make(map[string]bool)
	var out []string
	for _, rec := range records {
		if !seen[rec.Dataset] {
			seen[rec.Dataset] = true
			out = append(out, rec.Dataset)
		}
	}
	return out
}

// Fig2 renders discovery runtime per strategy per dataset (paper Figure 2).
func (r *Runner) Fig2(w io.Writer, outDir string, records []SweepRecord) error {
	return sweepFigure(w, outDir, "fig2_runtime.csv",
		"Figure 2: Runtime of the discovery algorithm (seconds).", "s",
		records, r.Cfg.Models, r.Cfg.Strategies,
		func(rec SweepRecord) float64 { return rec.Runtime.Seconds() })
}

// Fig4 renders MRR of the discovered facts (paper Figure 4).
func (r *Runner) Fig4(w io.Writer, outDir string, records []SweepRecord) error {
	return sweepFigure(w, outDir, "fig4_mrr.csv",
		"Figure 4: MRR of the discovery algorithm.", "MRR",
		records, r.Cfg.Models, r.Cfg.Strategies,
		func(rec SweepRecord) float64 { return rec.MRR })
}

// Fig6 renders discovery efficiency in facts/hour (paper Figure 6).
func (r *Runner) Fig6(w io.Writer, outDir string, records []SweepRecord) error {
	return sweepFigure(w, outDir, "fig6_efficiency.csv",
		"Figure 6: Efficiency of the discovery algorithm (facts/hour).", "facts/h",
		records, r.Cfg.Models, r.Cfg.Strategies,
		func(rec SweepRecord) float64 { return rec.FactsPerHour })
}

// ClusteringSummary is one dataset's row of Figure 3.
type ClusteringSummary struct {
	Dataset   string
	Mean      float64 // average local clustering coefficient (the red line)
	Nodes     int
	Histogram []int
	Edges     []float64
}

// Fig3 computes and renders the distribution of local clustering
// coefficients across the datasets (paper Figure 3).
func (r *Runner) Fig3(w io.Writer, outDir string) ([]ClusteringSummary, error) {
	const bins = 20
	var summaries []ClusteringSummary
	var csvRows [][]string
	fmt.Fprintln(w, "Figure 3: Distribution of local clustering coefficients per dataset.")
	for _, name := range DatasetNames() {
		ds, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		u := graphstats.BuildUndirected(ds.Train)
		coeffs := u.LocalClustering(nil)
		edges, counts := graphstats.Histogram(coeffs, bins)
		s := ClusteringSummary{
			Dataset:   name,
			Mean:      graphstats.Mean(coeffs),
			Nodes:     len(coeffs),
			Histogram: counts,
			Edges:     edges,
		}
		summaries = append(summaries, s)
		fmt.Fprintf(w, "\n(%s)  nodes=%d  average clustering coefficient=%.4f\n", name, s.Nodes, s.Mean)
		labels := make([]string, len(counts))
		values := make([]float64, len(counts))
		for i, c := range counts {
			labels[i] = fmt.Sprintf("[%.2f,%.2f)", edges[i], edges[i+1])
			values[i] = float64(c)
			csvRows = append(csvRows, []string{name,
				fmt.Sprintf("%g", edges[i]), fmt.Sprintf("%g", edges[i+1]), fmt.Sprintf("%d", c)})
		}
		RenderBars(w, "  histogram:", labels, values, "nodes")

		if outDir != "" {
			chart := plot.Histogram{
				Title:  fmt.Sprintf("Figure 3: clustering coefficients (%s)", name),
				XLabel: "local clustering coefficient",
				YLabel: "nodes",
				Edges:  edges,
				Counts: counts,
				Mean:   s.Mean,
			}
			path := filepath.Join(outDir, "fig3_clustering_"+name+".svg")
			if err := plot.WriteFile(path, chart.Render()); err != nil {
				return nil, err
			}
		}
	}
	if outDir != "" {
		if err := WriteCSV(filepath.Join(outDir, "fig3_clustering.csv"),
			[]string{"dataset", "bin_lo", "bin_hi", "count"}, csvRows); err != nil {
			return nil, err
		}
	}
	return summaries, nil
}

// NodeSeries carries Figure 5's per-node series for FB15K-237-sim.
type NodeSeries struct {
	Triangles   []int64
	Clustering  []float64
	Correlation float64 // Pearson correlation of the two series
}

// Fig5 computes the per-node triangle counts and clustering coefficients of
// FB15K-237-sim (paper Figure 5) and reports their (lack of) correlation,
// which is the figure's argument.
func (r *Runner) Fig5(w io.Writer, outDir string) (*NodeSeries, error) {
	ds, err := r.Dataset("fb15k237-sim")
	if err != nil {
		return nil, err
	}
	u := graphstats.BuildUndirected(ds.Train)
	tri := u.Triangles()
	coeffs := u.LocalClustering(tri)
	triF := make([]float64, len(tri))
	for i, t := range tri {
		triF[i] = float64(t)
	}
	series := &NodeSeries{
		Triangles:   tri,
		Clustering:  coeffs,
		Correlation: graphstats.PearsonCorrelation(triF, coeffs),
	}
	fmt.Fprintln(w, "Figure 5: Triangles vs clustering coefficient per node (fb15k237-sim).")
	fmt.Fprintf(w, "  nodes:                         %d\n", len(tri))
	fmt.Fprintf(w, "  mean triangles per node:       %.2f\n", graphstats.Mean(triF))
	fmt.Fprintf(w, "  mean clustering coefficient:   %.4f\n", graphstats.Mean(coeffs))
	fmt.Fprintf(w, "  Pearson correlation (T, c):    %.4f  (the paper argues this is weak)\n", series.Correlation)
	if outDir != "" {
		rows := make([][]string, len(tri))
		for i := range tri {
			rows[i] = []string{fmt.Sprintf("%d", i), fmt.Sprintf("%d", tri[i]), fmt.Sprintf("%g", coeffs[i])}
		}
		if err := WriteCSV(filepath.Join(outDir, "fig5_node_series.csv"),
			[]string{"node", "triangles", "clustering_coefficient"}, rows); err != nil {
			return nil, err
		}
		idx := make([]float64, len(tri))
		for i := range idx {
			idx[i] = float64(i)
		}
		triChart := plot.Scatter{
			Title:  "Figure 5a: local triangle count per node (fb15k237-sim)",
			XLabel: "node index", YLabel: "triangles",
			X: idx, Y: triF,
		}
		if err := plot.WriteFile(filepath.Join(outDir, "fig5_triangles.svg"), triChart.Render()); err != nil {
			return nil, err
		}
		ccChart := plot.Scatter{
			Title:  "Figure 5b: local clustering coefficient per node (fb15k237-sim)",
			XLabel: "node index", YLabel: "clustering coefficient",
			X: idx, Y: coeffs,
		}
		if err := plot.WriteFile(filepath.Join(outDir, "fig5_clustering.svg"), ccChart.Render()); err != nil {
			return nil, err
		}
	}
	return series, nil
}

// gridFigure renders one projection of a hyperparameter grid as a
// top_n × max_candidates matrix.
func gridFigure(w io.Writer, outDir, fileName, title string,
	records []GridRecord, value func(GridRecord) float64) error {

	byKey := make(map[[2]int]GridRecord)
	topNs := orderedInts(records, func(g GridRecord) int { return g.TopN })
	maxCands := orderedInts(records, func(g GridRecord) int { return g.MaxCandidates })
	for _, rec := range records {
		byKey[[2]int{rec.TopN, rec.MaxCandidates}] = rec
	}
	headers := []string{"top_n \\ max_cand"}
	for _, mc := range maxCands {
		headers = append(headers, fmt.Sprintf("%d", mc))
	}
	var rows [][]string
	var csvRows [][]string
	for _, tn := range topNs {
		row := []string{fmt.Sprintf("%d", tn)}
		for _, mc := range maxCands {
			rec, ok := byKey[[2]int{tn, mc}]
			if !ok {
				row = append(row, "-")
				continue
			}
			v := value(rec)
			row = append(row, fmt.Sprintf("%.4g", v))
			csvRows = append(csvRows, []string{rec.Strategy,
				fmt.Sprintf("%d", tn), fmt.Sprintf("%d", mc), fmt.Sprintf("%g", v)})
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(w, "%s\n\n", title)
	RenderTable(w, headers, rows)
	fmt.Fprintln(w)
	if outDir != "" {
		if err := WriteCSV(filepath.Join(outDir, fileName),
			[]string{"strategy", "top_n", "max_candidates", "value"}, csvRows); err != nil {
			return err
		}
		xs := make([]float64, len(maxCands))
		for i, mc := range maxCands {
			xs[i] = float64(mc)
		}
		seriesNames := make([]string, len(topNs))
		values := make([][]float64, len(topNs))
		for ti, tn := range topNs {
			seriesNames[ti] = fmt.Sprintf("top_n=%d", tn)
			values[ti] = make([]float64, len(maxCands))
			for mi, mc := range maxCands {
				if rec, ok := byKey[[2]int{tn, mc}]; ok {
					values[ti][mi] = value(rec)
				} else {
					values[ti][mi] = math.NaN()
				}
			}
		}
		chart := plot.LineChart{
			Title:  title,
			XLabel: "max_candidates",
			YLabel: "value",
			X:      xs,
			Series: seriesNames,
			Values: values,
		}
		return plot.WriteFile(filepath.Join(outDir, strings.TrimSuffix(fileName, ".csv")+".svg"), chart.Render())
	}
	return nil
}

func orderedInts(records []GridRecord, key func(GridRecord) int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, rec := range records {
		k := key(rec)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Fig7 renders runtime across the grid (paper Figure 7: runtime is flat in
// top_n and linear in max_candidates).
func (r *Runner) Fig7(w io.Writer, outDir string, records []GridRecord) error {
	return gridFigure(w, outDir, "fig7_grid_runtime.csv",
		"Figure 7: Grid runtime in seconds (fb15k237-sim, TransE, "+stratOf(records)+").",
		records, func(g GridRecord) float64 { return g.Runtime.Seconds() })
}

// Fig8 renders MRR across the grid (paper Figure 8: MRR falls with top_n,
// stays roughly stable with max_candidates).
func (r *Runner) Fig8(w io.Writer, outDir string, records []GridRecord) error {
	return gridFigure(w, outDir, "fig8_grid_mrr.csv",
		"Figure 8: Grid MRR (fb15k237-sim, TransE, "+stratOf(records)+").",
		records, func(g GridRecord) float64 { return g.MRR })
}

// Fig9And10 renders efficiency across the grid for one strategy; Figure 9
// reads the matrix along top_n and Figure 10 along max_candidates.
func (r *Runner) Fig9And10(w io.Writer, outDir string, records []GridRecord) error {
	return gridFigure(w, outDir, fmt.Sprintf("fig9_10_grid_efficiency_%s.csv", stratOf(records)),
		"Figures 9-10: Grid efficiency in facts/hour (fb15k237-sim, TransE, "+stratOf(records)+").",
		records, func(g GridRecord) float64 { return g.FactsPerHour })
}

func stratOf(records []GridRecord) string {
	if len(records) == 0 {
		return "?"
	}
	return records[0].Strategy
}

// SquaresRecord is one strategy's weight-computation cost in the exclusion
// experiment (X1). PerRelation is the measured cost of one Weights call
// (Algorithm 1 recomputes weights inside the per-relation loop);
// FullRunEstimate extrapolates to all relations of the dataset, mirroring
// how the paper extrapolated the aborted CLUSTERING SQUARES run.
type SquaresRecord struct {
	Strategy        string
	PerRelation     time.Duration
	FullRunEstimate time.Duration
}

// SquaresExclusion measures the per-relation weight-computation cost of
// every strategy, including CLUSTERING SQUARES, on fb15k237-sim — the cost
// the paper gave for dropping the squares strategy (§4.3: a 54-hour run
// against 2-3 hours for the others).
func (r *Runner) SquaresExclusion(ctx context.Context, w io.Writer, outDir string) ([]SquaresRecord, error) {
	ds, err := r.Dataset("fb15k237-sim")
	if err != nil {
		return nil, err
	}
	relations := ds.Train.RelationIDs()
	if len(relations) == 0 {
		return nil, fmt.Errorf("harness: fb15k237-sim has no relations")
	}
	probe := relations[0]
	var records []SquaresRecord
	var rows [][]string
	for _, name := range core.StrategyNames() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		strategy, err := core.StrategyByName(name)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		strategy.Weights(ds.Train, probe, strategy.Statistic(ds.Train))
		per := time.Since(start)
		rec := SquaresRecord{
			Strategy:        name,
			PerRelation:     per,
			FullRunEstimate: per * time.Duration(len(relations)),
		}
		records = append(records, rec)
		rows = append(rows, []string{name,
			fmt.Sprintf("%.6f", rec.PerRelation.Seconds()),
			fmt.Sprintf("%.3f", rec.FullRunEstimate.Seconds())})
	}
	fmt.Fprintf(w, "Exclusion experiment: per-relation weight-computation cost (fb15k237-sim, %d relations).\n\n", len(relations))
	RenderTable(w, []string{"strategy", "per relation (s)", "est. full run (s)"}, rows)
	cost := map[string]time.Duration{}
	for _, rec := range records {
		cost[rec.Strategy] = rec.PerRelation
	}
	if base, tri := cost["uniform_random"], cost["cluster_triangles"]; base > 0 && tri > 0 {
		fmt.Fprintf(w, "\ncluster_squares costs %.0fx uniform_random and %.1fx cluster_triangles per relation.\n",
			cost["cluster_squares"].Seconds()/base.Seconds(), cost["cluster_squares"].Seconds()/tri.Seconds())
	}
	if outDir != "" {
		if err := WriteCSV(filepath.Join(outDir, "squares_exclusion.csv"),
			[]string{"strategy", "per_relation_seconds", "full_run_estimate_seconds"}, rows); err != nil {
			return nil, err
		}
	}
	return records, nil
}
