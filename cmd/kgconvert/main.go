// Command kgconvert converts a gob checkpoint, the container kgtrain wrote
// before flat checkpoints, to the mmap-able flat layout every other command
// reads and writes, verifying that the weights survive bit-for-bit. It is
// the only command that reads gob.
//
//	kgconvert -in model.kge -out model.kgf
//
// An existing -out is refused, never overwritten. The conversion is
// fingerprint-checked: the output is re-opened and its kge.Fingerprint
// compared against the input's before kgconvert reports success, so a
// conversion can never silently corrupt weights.
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
		in  = fs.String("in", "", "input gob checkpoint (required)")
		out = fs.String("out", "", "output flat checkpoint path (required; an existing file is refused)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	if _, err := os.Stat(*out); err == nil {
		return fmt.Errorf("%s already exists", *out)
	}

	m, err := kge.LoadFile(*in)
	if err != nil {
		return fmt.Errorf("read %s as a gob checkpoint: %w", *in, err)
	}
	fp := kge.Fingerprint(m)
	if err := kge.SaveFlatFile(m, *out); err != nil {
		return fmt.Errorf("write %s: %w", *out, err)
	}

	// Round-trip verification: the written file must load to the same
	// canonical weights. Catches encoder bugs and torn filesystems alike.
	check, err := kge.OpenMapped(*out)
	if err != nil {
		return fmt.Errorf("verify %s: %w", *out, err)
	}
	defer check.Close()
	if got := kge.Fingerprint(check); got != fp {
		return fmt.Errorf("verify %s: fingerprint %s after conversion, want %s", *out, got, fp)
	}
	fmt.Printf("converted %s (gob) -> %s (flat), fingerprint %s\n", *in, *out, fp)
	return nil
}
