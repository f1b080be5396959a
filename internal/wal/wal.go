// Package wal is the repo's one durable log format: the discovery journal
// (internal/jobs, which the fleet coordinator also checkpoints into) and the
// mutation log (internal/mutate) are this file format with their own records
// inside. DESIGN.md §8 has the full description.
//
// A log is JSON lines, each an envelope {"crc":C,"rec":R} with C the IEEE
// CRC32 of R's bytes, so corruption that still parses as JSON is detected.
// The first R is the owner's header; what records mean and which sequences of
// them are coherent is the owner's business and arrives here as a closure.
//
//   - Append writes one line and fsyncs. If either fails it truncates back to
//     the last durable record, so a retry is never written after a torn line
//     (recovery would cut there and lose the retry and all after it); if the
//     truncate fails too, every later Append fails.
//   - Recover keeps the longest prefix whose every line frames, checksums and
//     is accepted, and truncates the rest. A last line whole but for its
//     newline counts — a crash can land between the two — and gets it back.
//   - Create fsyncs the parent directory once the header is durable, so a
//     crash cannot lose the name of a file holding acknowledged records.
package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fsio"
)

type envelope struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// Frame renders rec as one log line, trailing newline included.
func Frame(rec any) ([]byte, error) {
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

// Scan returns the length of the longest prefix of data in which every line
// frames, checksums and is accepted: accept sees each record's bytes in order
// and ends the prefix by returning false. The last line needs no newline.
// Scan never fails and never panics; a torn write, garbage, or a record the
// owner finds incoherent simply ends the prefix.
func Scan(data []byte, accept func(body []byte) bool) int {
	off := 0
	for off < len(data) {
		line, next := data[off:], len(data)
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line, next = line[:nl], off+nl+1
		}
		var env envelope
		if json.Unmarshal(line, &env) != nil || crc32.ChecksumIEEE(env.Rec) != env.CRC || !accept(env.Rec) {
			break
		}
		off = next
	}
	return off
}

// file is what a Log needs of *os.File; tests substitute one that fails.
type file interface {
	io.WriteSeeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// Log is an open log positioned for appending; not safe for concurrent use.
type Log struct {
	f      file
	end    int64 // offset just past the last durable record
	broken error // a rollback failed: the file's tail is unknown
}

// Create starts a log at path with header as its first record. An existing
// file is an os.ErrExist error; a failed Create leaves no file behind.
func Create(path string, header any) (*Log, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f}
	err = l.Append(header)
	if err == nil {
		err = fsio.SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return l, nil
}

// Recover opens the log at path for appending after its valid prefix. check
// is given the file's bytes and returns the prefix length (from Scan), or an
// error — a header of another version, model or configuration — which Recover
// returns without having touched the file. A missing file is os.ErrNotExist.
func Recover(path string, check func(data []byte) (validLen int, err error)) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	valid, err := check(data)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, end: int64(valid)}
	err = l.rollback()
	if err == nil && valid > 0 && data[valid-1] != '\n' {
		err = l.write([]byte{'\n'})
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Append durably records rec: on nil the line is on disk; on an error the log
// holds what it held before or, failing that, refuses all further appends.
func (l *Log) Append(rec any) error {
	line, err := Frame(rec)
	if err != nil {
		return err
	}
	return l.write(line)
}

func (l *Log) write(p []byte) error {
	if l.broken != nil {
		return l.broken
	}
	_, err := l.f.Write(p)
	if err == nil {
		err = l.f.Sync()
	}
	if err == nil {
		l.end += int64(len(p))
		return nil
	}
	if rerr := l.rollback(); rerr != nil {
		l.broken = fmt.Errorf("wal: log unusable: append failed (%v) and could not be rolled back: %w", err, rerr)
		return l.broken
	}
	return err
}

// rollback cuts the file at the last durable record and positions there.
func (l *Log) rollback() error {
	if err := l.f.Truncate(l.end); err != nil {
		return err
	}
	_, err := l.f.Seek(l.end, io.SeekStart)
	return err
}

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }
