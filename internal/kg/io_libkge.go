package kg

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/fsio"
)

// This file reads and writes the dataset layout used by LibKGE — the
// library the paper trains its models with — so datasets prepared for
// LibKGE can be used here directly and vice versa:
//
//	entity_ids.del    <id> \t <name>
//	relation_ids.del  <id> \t <name>
//	train.del         <subject id> \t <relation id> \t <object id>
//	valid.del / test.del
//
// IDs in the .del files must be dense and must match the dictionary files.

// LoadLibKGEDataset reads a LibKGE-format dataset directory.
func LoadLibKGEDataset(name, dir string) (*Dataset, error) {
	ents, err := readIDFile(filepath.Join(dir, "entity_ids.del"))
	if err != nil {
		return nil, err
	}
	rels, err := readIDFile(filepath.Join(dir, "relation_ids.del"))
	if err != nil {
		return nil, err
	}
	d := newDataset(name, ents, rels)
	for _, part := range d.files(".del") {
		if err := readTripleIDFile(filepath.Join(dir, part.name), part.g); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// SaveLibKGEDataset writes ds in LibKGE's layout under dir.
func SaveLibKGEDataset(d *Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeIDFile(filepath.Join(dir, "entity_ids.del"), d.Train.Entities); err != nil {
		return err
	}
	if err := writeIDFile(filepath.Join(dir, "relation_ids.del"), d.Train.Relations); err != nil {
		return err
	}
	for _, part := range d.files(".del") {
		if err := writeTripleIDFile(filepath.Join(dir, part.name), part.g); err != nil {
			return err
		}
	}
	return nil
}

// readIDFile loads "<id>\t<name>" lines into a Dict, verifying density.
func readIDFile(path string) (*Dict, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := NewDict()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r")
		if text == "" {
			continue
		}
		parts := strings.SplitN(text, "\t", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("kg: %s:%d: expected '<id>\\t<name>'", path, line)
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("kg: %s:%d: bad id %q", path, line, parts[0])
		}
		got := d.Intern(parts[1])
		if int(got) != id {
			return nil, fmt.Errorf("kg: %s:%d: non-dense or out-of-order id %d (expected %d)", path, line, id, got)
		}
	}
	return d, sc.Err()
}

func writeIDFile(path string, d *Dict) error {
	return fsio.WriteAtomic(path, func(f *os.File) error {
		w := bufio.NewWriter(f)
		for i, name := range d.Names() {
			if _, err := fmt.Fprintf(w, "%d\t%s\n", i, name); err != nil {
				return err
			}
		}
		return w.Flush()
	})
}

// readTripleIDFile loads "<s>\t<r>\t<o>" integer-ID lines into g.
func readTripleIDFile(path string, g *Graph) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return readTripleIDs(f, g, path)
}

func readTripleIDs(r io.Reader, g *Graph, label string) error {
	var ts []Triple
	defer func() { g.AddAll(ts) }()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	nEnt := int32(g.Entities.Len())
	nRel := int32(g.Relations.Len())
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), "\r")
		if text == "" {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 3 {
			return fmt.Errorf("kg: %s:%d: expected 3 tab-separated ids", label, line)
		}
		ids := make([]int64, 3)
		for i, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
			if err != nil {
				return fmt.Errorf("kg: %s:%d: bad id %q", label, line, p)
			}
			ids[i] = v
		}
		if ids[0] < 0 || ids[0] >= int64(nEnt) || ids[2] < 0 || ids[2] >= int64(nEnt) {
			return fmt.Errorf("kg: %s:%d: entity id out of range [0,%d)", label, line, nEnt)
		}
		if ids[1] < 0 || ids[1] >= int64(nRel) {
			return fmt.Errorf("kg: %s:%d: relation id out of range [0,%d)", label, line, nRel)
		}
		ts = append(ts, Triple{S: EntityID(ids[0]), R: RelationID(ids[1]), O: EntityID(ids[2])})
	}
	return sc.Err()
}

func writeTripleIDFile(path string, g *Graph) error {
	ts := g.Triples()
	SortTriples(ts)
	return fsio.WriteAtomic(path, func(f *os.File) error {
		w := bufio.NewWriter(f)
		for _, t := range ts {
			if _, err := fmt.Fprintf(w, "%d\t%d\t%d\n", t.S, t.R, t.O); err != nil {
				return err
			}
		}
		return w.Flush()
	})
}
