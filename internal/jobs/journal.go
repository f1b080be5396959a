// Package jobs makes discovery runs durable and asynchronous. A run of
// Algorithm 1 over all relations is the paper's headline cost — runtime and
// facts-per-hour are two of its three metrics — so a production deployment
// cannot afford to lose a half-finished sweep to a crash or hold an HTTP
// request open for its whole duration.
//
// The package decomposes a core.DiscoverFacts run into per-relation units
// (core seeds each relation's RNG stream independently, so the decomposition
// is exact): Run journals every completed relation to a write-ahead log
// (internal/wal owns framing, the fsync'd append and recovery; this file the
// records inside) and on restart resumes from the longest valid journal
// prefix — a resumed run produces byte-identical output to an uninterrupted
// one. The journal header pins the model's canonical weight fingerprint and a
// hash of the canonicalized options, so a checkpoint written under different
// weights or parameters is rejected instead of silently reused. Manager runs
// jobs on a bounded worker pool with cancellation, status snapshots, and
// bounded retention of completed results; internal/serve exposes it as the
// async /jobs API and kgdiscover as the -checkpoint/-resume flags.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/wal"
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

// RelationRecord marks one relation's sweep complete: the facts it kept and
// the stats of its sweep (whose own Relation and Facts are not encoded; this
// record has them). Appending one of these is the durability unit of a job.
type RelationRecord struct {
	Relation kg.RelationID      `json:"relation"`
	Facts    []FactRecord       `json:"facts"`
	Stats    core.RelationStats `json:"stats"`
}

// record is the tagged union written inside each journal line.
type record struct {
	Header   *Header         `json:"header,omitempty"`
	Relation *RelationRecord `json:"relation,omitempty"`
}

// Decode scans journal bytes and returns the longest valid prefix: the
// header (nil if even the first line is unusable), the relation records that
// follow it, and the byte length of the prefix. It never fails and never
// panics — a truncated, corrupted, or garbage-interleaved tail simply ends
// the prefix (wal.Scan). Beyond framing, a line ends the prefix when it is
// neither a header nor a relation (or claims to be both), is a second header,
// precedes the header, or repeats an already-seen relation: the writer never
// produces any of these, so their presence means the tail is not trustworthy.
func Decode(data []byte) (hdr *Header, recs []RelationRecord, validLen int) {
	seen := make(map[kg.RelationID]bool)
	validLen = wal.Scan(data, func(body []byte) bool {
		var rec record
		if json.Unmarshal(body, &rec) != nil || (rec.Header == nil) == (rec.Relation == nil) {
			return false
		}
		if rec.Header != nil {
			if hdr != nil {
				return false
			}
			hdr = rec.Header
			return true
		}
		if hdr == nil || seen[rec.Relation.Relation] {
			return false
		}
		seen[rec.Relation.Relation] = true
		recs = append(recs, *rec.Relation)
		return true
	})
	return hdr, recs, validLen
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

// Journal appends relation records to a wal.Log: a completed relation is on
// disk when Append returns, and a failed Append leaves the journal as it was.
type Journal struct{ log *wal.Log }

// Create starts a fresh journal at path, writing and syncing the header.
// It refuses to overwrite an existing file with ErrCheckpointExists.
func Create(path string, h Header) (*Journal, error) {
	h.Version = journalVersion
	log, err := wal.Create(path, record{Header: &h})
	if errors.Is(err, os.ErrExist) {
		return nil, fmt.Errorf("%w: %s", ErrCheckpointExists, path)
	}
	if err != nil {
		return nil, err
	}
	return &Journal{log: log}, nil
}

// CheckHeader validates the header Decode found in path's bytes against want:
// present, with want's version, fingerprint and options hash (else a *MismatchError).
func CheckHeader(path string, hdr *Header, want Header) error {
	switch {
	case hdr == nil:
		return fmt.Errorf("jobs: %s is not a discovery checkpoint (no valid header)", path)
	case hdr.Version != journalVersion:
		return &MismatchError{Field: "version", Want: fmt.Sprint(journalVersion), Got: fmt.Sprint(hdr.Version)}
	case hdr.Fingerprint != want.Fingerprint:
		return &MismatchError{Field: "fingerprint", Want: want.Fingerprint, Got: hdr.Fingerprint}
	case hdr.OptionsHash != want.OptionsHash:
		return &MismatchError{Field: "options", Want: want.OptionsHash, Got: hdr.OptionsHash}
	}
	return nil
}

// Recover opens an existing journal for resumption: it decodes the longest
// valid prefix, checks the header (CheckHeader) — a mismatch is returned with
// the file untouched — truncates any invalid tail, and reopens the file for
// appending. The returned records are the relations already complete. A
// missing file is not an error — Recover falls back to Create.
func Recover(path string, want Header) (*Journal, []RelationRecord, error) {
	var recs []RelationRecord
	log, err := wal.Recover(path, func(data []byte) (int, error) {
		hdr, decoded, valid := Decode(data)
		recs = decoded
		return valid, CheckHeader(path, hdr, want)
	})
	if errors.Is(err, os.ErrNotExist) {
		j, cerr := Create(path, want)
		return j, nil, cerr
	}
	if err != nil {
		return nil, nil, err
	}
	return &Journal{log: log}, recs, nil
}

// Open is the journal step of a run over relations, local or fleet: Create,
// or Recover when resume is set, then the splice. It returns the first
// recovered record of each listed relation, in journal order, and the
// relations still to sweep, in list order. (The options hash pins the list,
// so Recover refuses a journal with records of other relations.)
func Open(path string, hdr Header, resume bool, relations []kg.RelationID) (*Journal, []RelationRecord, []kg.RelationID, error) {
	var (
		j    *Journal
		recs []RelationRecord
		err  error
	)
	if resume {
		j, recs, err = Recover(path, hdr)
	} else {
		j, err = Create(path, hdr)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	pending := make(map[kg.RelationID]bool, len(relations))
	for _, r := range relations {
		pending[r] = true
	}
	var kept []RelationRecord
	for _, rec := range recs {
		if pending[rec.Relation] {
			pending[rec.Relation] = false
			kept = append(kept, rec)
		}
	}
	remaining := slices.DeleteFunc(slices.Clone(relations), func(r kg.RelationID) bool { return !pending[r] })
	return j, kept, remaining, nil
}

// Append durably records one completed relation.
func (j *Journal) Append(rec RelationRecord) error {
	return j.log.Append(record{Relation: &rec})
}

// Close closes the underlying file.
func (j *Journal) Close() error { return j.log.Close() }

// RecordOf converts one OnRelationDone payload to its journal/wire form.
// It deep-copies the facts: RelationDone.Facts aliases core's internal
// buffers and is only valid during the callback, but a RelationRecord is a
// value callers may keep, journal, or ship across a network.
func RecordOf(d core.RelationDone) RelationRecord {
	rec := RelationRecord{Relation: d.Relation, Stats: d.Stats}
	for _, f := range d.Facts {
		rec.Facts = append(rec.Facts, FactRecord{S: f.Triple.S, R: f.Triple.R, O: f.Triple.O, Rank: f.Rank})
	}
	return rec
}
