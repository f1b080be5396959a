package kg

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fsio"
)

// ReadTSV parses triples in the ubiquitous "subject \t relation \t object"
// benchmark format into g, interning names in g's dictionaries. Blank lines
// and lines starting with '#' are skipped. It returns the number of triples
// added (duplicates are counted as read but not added twice).
func ReadTSV(g *Graph, r io.Reader) (added int, err error) {
	var ts []Triple
	defer func() { g.AddAll(ts) }()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r\n")
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 3 {
			return added, fmt.Errorf("kg: line %d: expected 3 tab-separated fields, got %d", line, len(parts))
		}
		ts = append(ts, g.named(parts[0], parts[1], parts[2]))
		added++
	}
	return added, sc.Err()
}

// WriteTSV writes the graph's triples in (S, R, O)-sorted order, one per
// line, using dictionary names.
func WriteTSV(g *Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	ts := g.Triples()
	SortTriples(ts)
	for _, t := range ts {
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\n",
			g.Entities.Name(int32(t.S)), g.Relations.Name(int32(t.R)), g.Entities.Name(int32(t.O))); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveDataset writes train.txt, valid.txt and test.txt under dir, creating
// the directory if needed. Each file is put in place atomically (fsio): a
// reader never sees half a split.
func SaveDataset(d *Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, part := range d.files(".txt") {
		if err := fsio.WriteAtomic(filepath.Join(dir, part.name), func(f *os.File) error { return WriteTSV(part.g, f) }); err != nil {
			return err
		}
	}
	return nil
}

// LoadDataset reads train.txt, valid.txt and test.txt from dir into a
// Dataset whose splits share dictionaries. Train is read first so that the
// common case (all vocabulary in train) yields train-dense IDs.
//
// If dir contains an entity_ids.del file the directory is treated as a
// LibKGE-format dataset instead: that layout carries explicit dense IDs, so a
// dataset dumped after mutations reloads with the exact entity-ID-to-
// embedding-row mapping the model was trained against (a plain TSV reload
// would re-intern in file order and silently misalign the rows).
func LoadDataset(name, dir string) (*Dataset, error) {
	if _, err := os.Stat(filepath.Join(dir, "entity_ids.del")); err == nil {
		return LoadLibKGEDataset(name, dir)
	}
	ents, rels := NewDict(), NewDict()
	d := newDataset(name, ents, rels)
	for _, part := range d.files(".txt") {
		f, err := os.Open(filepath.Join(dir, part.name))
		if err != nil {
			return nil, err
		}
		_, err = ReadTSV(part.g, f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("kg: %s/%s: %w", dir, part.name, err)
		}
	}
	return d, nil
}
