// Command kggen generates a synthetic knowledge graph dataset and writes
// the train/valid/test splits as TSV files.
//
//	kggen -preset fb15k237 -scale 10 -out data/fb10
//	kggen -entities 5000 -relations 40 -triples 60000 -out data/custom
//
// A preset fixes every generator parameter, its seed included, so the custom
// flags (-entities through -seed) are refused beside -preset, and -scale
// beside -preset tiny or without a preset. kgstats -clustering prints a
// generated dataset's clustering statistics.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/kg"
	"repro/internal/synth"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kggen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kggen", flag.ContinueOnError)
	var (
		preset    = fs.String("preset", "", "dataset preset: fb15k237, wn18rr, yago310, codexl, tiny (empty = custom)")
		scale     = fs.Int("scale", 10, "preset scale divisor (fb15k237, wn18rr, yago310, codexl)")
		out       = fs.String("out", "", "output directory (required)")
		entities  = fs.Int("entities", 1000, "custom: number of entities")
		relations = fs.Int("relations", 20, "custom: number of relations")
		triples   = fs.Int("triples", 10000, "custom: number of triples")
		types     = fs.Int("types", 8, "custom: latent entity types")
		closure   = fs.Float64("closure", 0.2, "custom: triadic closure probability")
		noise     = fs.Float64("noise", 0.05, "custom: type-violation probability")
		zipf      = fs.Float64("zipf", 1.0, "custom: entity popularity Zipf exponent")
		validFrac = fs.Float64("valid", 0.05, "custom: validation fraction")
		testFrac  = fs.Float64("test", 0.05, "custom: test fraction")
		seed      = fs.Int64("seed", 1, "custom: random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	// A flag the chosen mode would ignore is refused: -scale sizes the four
	// scaled presets only, the custom flags the custom mode only.
	mode, set := "custom mode", []string(nil)
	if *preset != "" {
		mode = "-preset " + *preset
	}
	fs.Visit(func(f *flag.Flag) {
		custom := f.Name != "preset" && f.Name != "scale" && f.Name != "out"
		if custom && *preset != "" || f.Name == "scale" && (*preset == "" || *preset == "tiny") {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) > 0 {
		return fmt.Errorf("%s ignores %v; drop them", mode, set)
	}

	var cfg synth.Config
	switch *preset {
	case "fb15k237":
		cfg = synth.FB15K237Sim(*scale)
	case "wn18rr":
		cfg = synth.WN18RRSim(*scale)
	case "yago310":
		cfg = synth.YAGO310Sim(*scale)
	case "codexl":
		cfg = synth.CoDExLSim(*scale)
	case "tiny":
		cfg = synth.Tiny()
	case "":
		cfg = synth.Config{
			Name:         "custom",
			NumEntities:  *entities,
			NumRelations: *relations,
			NumTriples:   *triples,
			NumTypes:     *types,
			EntityZipf:   *zipf,
			RelationZipf: 0.9,
			ClosureProb:  *closure,
			NoiseProb:    *noise,
			ValidFrac:    *validFrac,
			TestFrac:     *testFrac,
			Seed:         *seed,
		}
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}

	ds, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	if err := kg.SaveDataset(ds, *out); err != nil {
		return err
	}
	fmt.Printf("wrote %s to %s\n", ds.Metadata(), *out)
	return nil
}
