package mutate

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The mutation log is an on-disk format: a server restarted on a newer build
// replays the log an older build wrote. testdata/mutations_golden.wal was
// generated before the framing moved into internal/wal; it is regenerated
// only when the format is changed on purpose.

func goldenBatches() []Batch {
	return []Batch{
		{Seq: 1, Source: "extractor-7", Timestamp: "2026-08-08T00:00:00Z", Ops: []Op{
			{Kind: OpAdd, S: "e0", R: "r1", O: "e2"},
			{Kind: OpAdd, S: "tab\there", R: `quote"d`, O: "é<&>"},
		}},
		{Seq: 2, Ops: []Op{{Kind: OpDelete, S: "e0", R: "r0", O: "e1"}}},
	}
}

func TestMutationLogGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "mutations_golden.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.wal")
	log, recovered, err := OpenLog(path, "tiny")
	if err != nil || len(recovered) != 0 {
		t.Fatalf("open fresh: %v, %d batches", err, len(recovered))
	}
	for _, b := range goldenBatches() {
		if err := log.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("mutation log bytes changed.\n got: %q\nwant: %q", got, want)
	}

	// The read side of the same bytes, through the decoder and through a
	// reopen that must not rewrite a healthy file.
	hdr, batches, valid := DecodeLog(want)
	if valid != len(want) || hdr == nil || *hdr != (LogHeader{Version: 1, Dataset: "tiny"}) {
		t.Fatalf("golden log decodes to %d/%d bytes, header %+v", valid, len(want), hdr)
	}
	if !reflect.DeepEqual(batches, goldenBatches()) {
		t.Fatalf("golden log decodes to %+v", batches)
	}
	log, recovered, err = OpenLog(path, "ignored-on-reopen")
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if !reflect.DeepEqual(recovered, goldenBatches()) {
		t.Fatalf("reopen recovered %+v", recovered)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, want) {
		t.Fatal("reopening a healthy log changed its bytes")
	}
}

// A log for an unnamed dataset omits the field instead of writing "".
func TestMutationLogHeaderWithoutDataset(t *testing.T) {
	const want = `{"crc":2801623077,"rec":{"header":{"version":1}}}` + "\n"
	path := filepath.Join(t.TempDir(), "m.wal")
	log, _, err := OpenLog(path, "")
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if got, _ := os.ReadFile(path); string(got) != want {
		t.Fatalf("header-only log is %q, want %q", got, want)
	}
}

// A log written by a different format version is refused before recovery
// touches it: not even its corrupt tail is truncated.
func TestOpenLogVersionMismatchLeavesFileUntouched(t *testing.T) {
	const v2 = `{"crc":1544604593,"rec":{"header":{"version":2,"dataset":"tiny"}}}` + "\n" + `{"crc":1,"rec":{"bat`
	path := filepath.Join(t.TempDir(), "m.wal")
	if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenLog(path, "tiny")
	if err == nil || !strings.Contains(err.Error(), "log version 2") {
		t.Fatalf("err = %v, want a log version refusal", err)
	}
	if after, _ := os.ReadFile(path); string(after) != v2 {
		t.Fatalf("refused log was modified: %q", after)
	}
}
