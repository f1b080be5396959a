// Command kgstats prints structural statistics of a TSV dataset: Table 1
// style metadata, degree and clustering summaries, and (optionally) the
// square clustering coefficients.
//
//	kgstats -data data/fb10 -clustering -histogram
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/graphstats"
	"repro/internal/kg"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kgstats:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kgstats", flag.ContinueOnError)
	var (
		dataDir    = fs.String("data", "", "dataset directory (required)")
		clustering = fs.Bool("clustering", false, "compute triangle and clustering statistics")
		histogram  = fs.Bool("histogram", false, "print the clustering-coefficient histogram (Figure 3 style)")
		squares    = fs.Bool("squares", false, "compute square clustering coefficients")
		topK       = fs.Int("top", 10, "show this many highest-degree entities")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("-data is required")
	}

	ds, err := kg.LoadDataset(*dataDir, *dataDir)
	if err != nil {
		return err
	}
	m := ds.Metadata()
	fmt.Fprintf(stdout, "dataset:    %s\n", *dataDir)
	fmt.Fprintf(stdout, "train:      %d\nvalidation: %d\ntest:       %d\nentities:   %d\nrelations:  %d\n",
		m.Train, m.Validation, m.Test, m.Entities, m.Relations)
	fmt.Fprintf(stdout, "density:    %.2f triples/entity\n", float64(m.Train)/float64(m.Entities))

	g := ds.Train
	type ranked struct {
		e kg.EntityID
		d int64
	}
	all := make([]ranked, g.NumEntities())
	for e := range all {
		all[e] = ranked{kg.EntityID(e), g.Degree(kg.EntityID(e))}
	}
	slices.SortFunc(all, func(a, b ranked) int { return cmp.Or(cmp.Compare(b.d, a.d), cmp.Compare(a.e, b.e)) })
	fmt.Fprintf(stdout, "\ntop %d entities by degree:\n", *topK)
	for i := 0; i < *topK && i < len(all); i++ {
		fmt.Fprintf(stdout, "  %-24s degree %d\n", g.Entities.Name(int32(all[i].e)), all[i].d)
	}

	if *clustering || *histogram || *squares {
		u := graphstats.BuildUndirected(g)
		tri := u.Triangles()
		coeffs := u.LocalClustering(tri)
		var triSum int64
		for _, t := range tri {
			triSum += t
		}
		fmt.Fprintf(stdout, "\nundirected edges:               %d\n", u.NumEdges())
		fmt.Fprintf(stdout, "triangles (total):              %d\n", triSum/3)
		fmt.Fprintf(stdout, "average clustering coefficient: %.4f\n", graphstats.Mean(coeffs))

		if *histogram {
			edges, counts := graphstats.Histogram(coeffs, 20)
			fmt.Fprintln(stdout, "\nclustering coefficient histogram:")
			maxC := 0
			for _, c := range counts {
				if c > maxC {
					maxC = c
				}
			}
			for i, c := range counts { // counts sum to len(coeffs), so maxC > 0 here
				fmt.Fprintf(stdout, "  [%.2f,%.2f) %6d %s\n", edges[i], edges[i+1], c, strings.Repeat("#", c*40/maxC))
			}
		}
		if *squares {
			c4 := u.SquareClustering()
			fmt.Fprintf(stdout, "average square clustering:      %.4f\n", graphstats.Mean(c4))
		}
	}
	return nil
}
