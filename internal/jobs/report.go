package jobs

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/kg"
)

// FactsOf converts journal/wire facts back to core's form.
func FactsOf(recs []FactRecord) []core.Fact {
	facts := make([]core.Fact, len(recs))
	for i, f := range recs {
		facts[i] = core.Fact{Triple: kg.Triple{S: f.S, R: f.R, O: f.O}, Rank: f.Rank}
	}
	return facts
}

// ReportFacts is the tail kgdiscover (local and -fleet), kgfleet and kgmutate
// end with: the first limit facts (0 = all) on w, named through g's
// dictionaries, then — when outTSV is set — every fact as a TSV, put in place
// atomically: it is what CI compares with cmp across those commands and what
// the next command reads, so a crash must leave the old file or the new one.
func ReportFacts(w io.Writer, g *kg.Graph, facts []core.Fact, limit int, outTSV string) error {
	n := len(facts)
	if limit > 0 && limit < n {
		n = limit
	}
	for _, f := range facts[:n] {
		fmt.Fprintf(w, "rank %4d  %s\n", f.Rank, g.FormatTriple(f.Triple))
	}
	if n < len(facts) {
		fmt.Fprintf(w, "... and %d more\n", len(facts)-n)
	}
	if outTSV == "" {
		return nil
	}
	out := kg.NewGraphWithDicts(g.Entities, g.Relations)
	for _, f := range facts {
		out.Add(f.Triple)
	}
	if err := fsio.WriteAtomic(outTSV, func(f *os.File) error { return kg.WriteTSV(out, f) }); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d facts to %s\n", len(facts), outTSV)
	return nil
}
