package mutate

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/wal"
)

// The mutation log is an internal/wal log — that package owns the line
// framing, the fsync'd append and its rollback, and recovery — whose records
// are a header and the applied batches. The base dataset plus the log replays
// to exactly the current graph, so a restarted server resumes at the same
// sequence number with bit-identical state.

// logVersion is the wire-format version; a bump invalidates old logs rather
// than risking a wrong replay.
const logVersion = 1

// LogHeader is the first record of every mutation log.
type LogHeader struct {
	Version int `json:"version"`
	// Dataset is a free-form label of the base dataset the log applies to.
	Dataset string `json:"dataset,omitempty"`
}

// logRecord is the tagged union written inside each log line.
type logRecord struct {
	Header *LogHeader `json:"header,omitempty"`
	Batch  *Batch     `json:"batch,omitempty"`
}

// DecodeLog scans mutation-log bytes and returns the longest valid prefix:
// the header (nil if even the first line is unusable), the batches that
// follow, and the byte length of the prefix. It never fails and never panics
// (wal.Scan). Beyond framing, a line that is neither header nor batch (or
// both), a second header, a batch before the header, or a batch whose Seq is
// not exactly one past the previous batch's ends the prefix: the writer never
// produces any of these, so their presence means the tail is untrustworthy.
func DecodeLog(data []byte) (hdr *LogHeader, batches []Batch, validLen int) {
	validLen = wal.Scan(data, func(body []byte) bool {
		var rec logRecord
		if json.Unmarshal(body, &rec) != nil || (rec.Header == nil) == (rec.Batch == nil) {
			return false
		}
		if rec.Header != nil {
			if hdr != nil {
				return false
			}
			hdr = rec.Header
			return true
		}
		if hdr == nil || rec.Batch.Seq != int64(len(batches))+1 {
			return false
		}
		batches = append(batches, *rec.Batch)
		return true
	})
	return hdr, batches, validLen
}

// Log appends mutation batches to a wal.Log: an acknowledged batch is on disk,
// and a failed Append leaves the log as it was for the client's retry.
type Log struct{ log *wal.Log }

// OpenLog opens (or creates) the mutation log at path. A fresh file gets a
// header naming the base dataset; an existing file is recovered — the header
// is version-checked (a mismatch is returned with the file untouched), the
// longest valid prefix decoded, any corrupt tail truncated — and its batches
// are returned for the caller to Replay.
func OpenLog(path, dataset string) (*Log, []Batch, error) {
	var batches []Batch
	log, err := wal.Recover(path, func(data []byte) (int, error) {
		hdr, decoded, valid := DecodeLog(data)
		batches = decoded
		if hdr == nil {
			return 0, fmt.Errorf("mutate: %s is not a mutation log (no valid header)", path)
		}
		if hdr.Version != logVersion {
			return 0, fmt.Errorf("mutate: %s: log version %d, this build writes %d", path, hdr.Version, logVersion)
		}
		return valid, nil
	})
	if errors.Is(err, os.ErrNotExist) {
		log, err = wal.Create(path, logRecord{Header: &LogHeader{Version: logVersion, Dataset: dataset}})
	}
	if err != nil {
		return nil, nil, err
	}
	return &Log{log: log}, batches, nil
}

// Append durably records one batch, before it is applied.
func (l *Log) Append(b Batch) error {
	return l.log.Append(logRecord{Batch: &b})
}

// Close closes the underlying file.
func (l *Log) Close() error { return l.log.Close() }
