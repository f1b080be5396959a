// Command kgconvert converts model checkpoints between the gob container
// (kgtrain's default) and the mmap-able flat layout, verifying that the
// weights survive bit-for-bit.
//
//	kgconvert -in model.kge -out model.kgf             # gob → flat
//	kgconvert -in model.kgf -out model.kge -to gob     # flat → gob
//
// The conversion is fingerprint-checked: the output is re-opened and its
// kge.Fingerprint compared against the input's before kgconvert reports
// success, so a conversion can never silently corrupt weights.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/kge"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kgconvert:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kgconvert", flag.ContinueOnError)
	var (
		in    = fs.String("in", "", "input checkpoint (gob or flat, sniffed; required)")
		out   = fs.String("out", "", "output checkpoint path (required)")
		to    = fs.String("to", "flat", "output format: flat or gob")
		force = fs.Bool("force", false, "overwrite an existing output file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	if *to != "flat" && *to != "gob" {
		return fmt.Errorf("unknown -to %q (want flat or gob)", *to)
	}
	if !*force {
		if _, err := os.Stat(*out); err == nil {
			return fmt.Errorf("%s already exists (use -force to overwrite)", *out)
		}
	}

	m, mapped, inFormat, err := kge.LoadAuto(*in)
	if err != nil {
		return fmt.Errorf("read %s: %w", *in, err)
	}
	if mapped != nil {
		defer mapped.Close()
	}
	fp := kge.Fingerprint(m)

	if inFormat == *to {
		return fmt.Errorf("%s is already a %s checkpoint", *in, inFormat)
	}
	switch *to {
	case "flat":
		err = kge.SaveFlatFile(m, *out)
	case "gob":
		err = kge.SaveFile(m, *out)
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", *out, err)
	}

	// Round-trip verification: the written file must load to the same
	// canonical weights. Catches encoder bugs and torn filesystems alike.
	check, checkMapped, _, err := kge.LoadAuto(*out)
	if err != nil {
		return fmt.Errorf("verify %s: %w", *out, err)
	}
	if checkMapped != nil {
		defer checkMapped.Close()
	}
	if got := kge.Fingerprint(check); got != fp {
		return fmt.Errorf("verify %s: fingerprint %s after conversion, want %s", *out, got, fp)
	}
	fmt.Printf("converted %s (%s) -> %s (%s), fingerprint %s\n", *in, inFormat, *out, *to, fp)
	return nil
}
