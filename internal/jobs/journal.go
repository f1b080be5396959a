// Package jobs makes discovery runs durable and asynchronous. A run of
// Algorithm 1 over all relations is the paper's headline cost — runtime and
// facts-per-hour are two of its three metrics — so a production deployment
// cannot afford to lose a half-finished sweep to a crash or hold an HTTP
// request open for its whole duration.
//
// The package decomposes a core.DiscoverFacts run into per-relation units
// (core seeds each relation's RNG stream independently, so the decomposition
// is exact): Run journals every completed relation to an append-only JSONL
// write-ahead log, fsync'd record by record, and on restart resumes from the
// longest valid journal prefix — a resumed run produces byte-identical
// output to an uninterrupted one. The journal header pins the model's
// canonical weight fingerprint and a hash of the canonicalized options, so a
// checkpoint written under different weights or parameters is rejected
// instead of silently reused. Manager runs jobs on a bounded worker pool
// with cancellation, status snapshots, and bounded retention of completed
// results; internal/serve exposes it as the async /jobs API and kgdiscover
// as the -checkpoint/-resume flags.
package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/kg"
)

// journalVersion is the current wire-format version of the WAL. A version
// bump invalidates old checkpoints (Recover reports a mismatch) rather than
// risking a wrong resume.
const journalVersion = 1

// Header is the first record of every journal. It pins the identity of the
// run: a checkpoint only resumes under the same model weights
// (Fingerprint, from kge.Fingerprint) and the same canonicalized options
// (OptionsHash, from OptionsHash).
type Header struct {
	Version        int    `json:"version"`
	Fingerprint    string `json:"fingerprint"`
	OptionsHash    string `json:"options_hash"`
	Strategy       string `json:"strategy"`
	TotalRelations int    `json:"total_relations"`
}

// FactRecord is one discovered fact in the journal's wire format.
type FactRecord struct {
	S    kg.EntityID   `json:"s"`
	R    kg.RelationID `json:"r"`
	O    kg.EntityID   `json:"o"`
	Rank int           `json:"rank"`
}

// StatsRecord is core.RelationStats with durations flattened to integer
// nanoseconds so the encoding is stable and trivially comparable.
type StatsRecord struct {
	WeightNS    int64 `json:"weight_ns"`
	GenerateNS  int64 `json:"generate_ns"`
	RankNS      int64 `json:"rank_ns"`
	Generated   int   `json:"generated"`
	Iterations  int   `json:"iterations"`
	ScoreSweeps int   `json:"score_sweeps"`
	// Batch counters journal as omitempty so records from runs predating
	// relation-blocked ranking, and pruned runs (which count prune work
	// instead), stay byte-stable; decoding an old record yields zeros, which
	// is also what those runs measured.
	BatchedSweeps int `json:"batched_sweeps,omitempty"`
	BatchRows     int `json:"batch_rows,omitempty"`
	// Prune counters follow the same omitempty pattern: zero (and absent)
	// for every run with pruning off, including all pre-pruning journals.
	CellsPruned   int `json:"cells_pruned,omitempty"`
	PrescreenRows int `json:"prescreen_rows,omitempty"`
}

// RelationRecord marks one relation's sweep complete: the facts it kept and
// the stats of its sweep. Appending (and fsyncing) one of these is the
// durability unit of a job.
type RelationRecord struct {
	Relation kg.RelationID `json:"relation"`
	Facts    []FactRecord  `json:"facts"`
	Stats    StatsRecord   `json:"stats"`
}

// record is the tagged union written inside each journal line.
type record struct {
	Header   *Header         `json:"header,omitempty"`
	Relation *RelationRecord `json:"relation,omitempty"`
}

// envelope frames one journal line: the serialized record plus its IEEE
// CRC32, so corruption that still parses as JSON is detected.
type envelope struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// encodeLine renders one framed journal line including the trailing newline.
func encodeLine(rec record) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(envelope{CRC: crc32.ChecksumIEEE(body), Rec: body})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// decodeLine parses one framed line. It reports ok=false for anything
// malformed: invalid JSON, a CRC mismatch, or a record that is neither a
// header nor a relation (or claims to be both).
func decodeLine(line []byte) (record, bool) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return record{}, false
	}
	if crc32.ChecksumIEEE(env.Rec) != env.CRC {
		return record{}, false
	}
	var rec record
	if err := json.Unmarshal(env.Rec, &rec); err != nil {
		return record{}, false
	}
	if (rec.Header == nil) == (rec.Relation == nil) {
		return record{}, false
	}
	return rec, true
}

// Decode scans journal bytes and returns the longest valid prefix: the
// header (nil if even the first line is unusable), the relation records that
// follow it, and the byte length of the prefix. It never fails and never
// panics — a truncated, corrupted, or garbage-interleaved tail simply ends
// the prefix. The final line is accepted without a trailing newline iff it
// still frames and checksums correctly (a crash can land exactly between
// the write and the newline reaching disk). A duplicate record for an
// already-seen relation ends the prefix too: the writer never produces one,
// so its presence means the tail is not trustworthy.
func Decode(data []byte) (hdr *Header, recs []RelationRecord, validLen int) {
	seen := make(map[kg.RelationID]bool)
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		var line []byte
		lineEnd := 0
		if nl < 0 {
			line = data[off:]
			lineEnd = len(data)
		} else {
			line = data[off : off+nl]
			lineEnd = off + nl + 1
		}
		rec, ok := decodeLine(line)
		if !ok {
			return hdr, recs, off
		}
		switch {
		case rec.Header != nil:
			if hdr != nil { // second header: untrustworthy tail
				return hdr, recs, off
			}
			hdr = rec.Header
		case rec.Relation != nil:
			if hdr == nil || seen[rec.Relation.Relation] {
				return hdr, recs, off
			}
			seen[rec.Relation.Relation] = true
			recs = append(recs, *rec.Relation)
		}
		off = lineEnd
	}
	return hdr, recs, off
}

// ErrCheckpointExists reports that Create found a journal already on disk
// and resume was not requested.
var ErrCheckpointExists = errors.New("jobs: checkpoint file already exists (pass resume to continue it)")

// MismatchError reports a checkpoint that cannot be resumed under the
// current model or options. It is always a hard error: silently reusing a
// stale checkpoint would splice facts from different weights or parameters
// into one output.
type MismatchError struct {
	Field string // "version", "fingerprint", or "options"
	Want  string // value the current run requires
	Got   string // value found in the journal
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("jobs: checkpoint %s mismatch: journal was written with %s %q, this run has %q — delete the checkpoint or rerun with the original configuration",
		e.Field, e.Field, e.Got, e.Want)
}

// Journal appends framed records to a WAL file, fsyncing after every append
// so a completed relation survives any crash.
type Journal struct {
	f *os.File
}

// Create starts a fresh journal at path, writing and syncing the header.
// It refuses to overwrite an existing file with ErrCheckpointExists.
func Create(path string, h Header) (*Journal, error) {
	h.Version = journalVersion
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("%w: %s", ErrCheckpointExists, path)
		}
		return nil, err
	}
	j := &Journal{f: f}
	if err := j.append(record{Header: &h}); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// Recover opens an existing journal for resumption: it decodes the longest
// valid prefix, validates the header against want (version, fingerprint,
// options hash), truncates any invalid tail, and reopens the file for
// appending. The returned records are the relations already complete.
// A missing file is not an error — Recover falls back to Create.
func Recover(path string, want Header) (*Journal, []RelationRecord, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		j, cerr := Create(path, want)
		return j, nil, cerr
	}
	if err != nil {
		return nil, nil, err
	}
	hdr, recs, valid := Decode(data)
	if hdr == nil {
		return nil, nil, fmt.Errorf("jobs: %s is not a discovery checkpoint (no valid header)", path)
	}
	if hdr.Version != journalVersion {
		return nil, nil, &MismatchError{Field: "version", Want: fmt.Sprint(journalVersion), Got: fmt.Sprint(hdr.Version)}
	}
	if hdr.Fingerprint != want.Fingerprint {
		return nil, nil, &MismatchError{Field: "fingerprint", Want: want.Fingerprint, Got: hdr.Fingerprint}
	}
	if hdr.OptionsHash != want.OptionsHash {
		return nil, nil, &MismatchError{Field: "options", Want: want.OptionsHash, Got: hdr.OptionsHash}
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// Drop the corrupt tail (if any) so appends extend the valid prefix.
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f}, recs, nil
}

// Append durably records one completed relation: the line is written and
// the file fsync'd before Append returns.
func (j *Journal) Append(rec RelationRecord) error {
	return j.append(record{Relation: &rec})
}

func (j *Journal) append(rec record) error {
	line, err := encodeLine(rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close closes the underlying file.
func (j *Journal) Close() error { return j.f.Close() }

// RecordOf converts one OnRelationDone payload to its journal/wire form.
// It deep-copies the facts: RelationDone.Facts aliases core's internal
// buffers and is only valid during the callback, but a RelationRecord is a
// value callers may keep, journal, or ship across a network.
func RecordOf(d core.RelationDone) RelationRecord {
	rec := RelationRecord{
		Relation: d.Relation,
		Stats: StatsRecord{
			WeightNS:      int64(d.Stats.WeightTime),
			GenerateNS:    int64(d.Stats.GenerateTime),
			RankNS:        int64(d.Stats.RankTime),
			Generated:     d.Stats.Generated,
			Iterations:    d.Stats.Iterations,
			ScoreSweeps:   d.Stats.ScoreSweeps,
			BatchedSweeps: d.Stats.BatchedSweeps,
			BatchRows:     d.Stats.BatchRows,
			CellsPruned:   d.Stats.CellsPruned,
			PrescreenRows: d.Stats.PrescreenRows,
		},
	}
	for _, f := range d.Facts {
		rec.Facts = append(rec.Facts, FactRecord{S: f.Triple.S, R: f.Triple.R, O: f.Triple.O, Rank: f.Rank})
	}
	return rec
}

// relationStatsOf converts a journaled record back to core.RelationStats.
func relationStatsOf(rec RelationRecord) core.RelationStats {
	return core.RelationStats{
		Relation:      rec.Relation,
		WeightTime:    time.Duration(rec.Stats.WeightNS),
		GenerateTime:  time.Duration(rec.Stats.GenerateNS),
		RankTime:      time.Duration(rec.Stats.RankNS),
		Generated:     rec.Stats.Generated,
		Iterations:    rec.Stats.Iterations,
		ScoreSweeps:   rec.Stats.ScoreSweeps,
		BatchedSweeps: rec.Stats.BatchedSweeps,
		BatchRows:     rec.Stats.BatchRows,
		CellsPruned:   rec.Stats.CellsPruned,
		PrescreenRows: rec.Stats.PrescreenRows,
		Facts:         len(rec.Facts),
	}
}
