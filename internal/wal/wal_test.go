package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// The tests' log holds consecutive integers: record i is {"n":i,…} and record
// 0 is the header. That gives the owner's side — a coherence rule and a
// header check — in a dozen lines.
type intRec struct {
	N   int    `json:"n"`
	Pad string `json:"pad,omitempty"` // varies the line lengths
}

func rec(n int) intRec { return intRec{N: n, Pad: strings.Repeat("x", n*7%11)} }

func scanInts(data []byte) (ns []int, valid int) {
	valid = Scan(data, func(body []byte) bool {
		var r intRec
		if json.Unmarshal(body, &r) != nil || r.N != len(ns) {
			return false
		}
		ns = append(ns, r.N)
		return true
	})
	return ns, valid
}

var errNoHeader = errors.New("no header")

func recoverInts(path string) (*Log, []int, error) {
	var ns []int
	l, err := Recover(path, func(data []byte) (int, error) {
		var valid int
		if ns, valid = scanInts(data); len(ns) == 0 {
			return 0, errNoHeader
		}
		return valid, nil
	})
	return l, ns, err
}

// healthy returns the bytes of a log holding records 0..n-1.
func healthy(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		line, err := Frame(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestCreateAppendRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.wal")
	l, err := Create(path, rec(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, healthy(t, 4)) {
		t.Fatalf("log bytes %q", got)
	}
	if _, err := Create(path, rec(0)); !errors.Is(err, os.ErrExist) {
		t.Fatalf("Create over an existing log: err = %v, want os.ErrExist", err)
	}
	l, ns, err := recoverInts(path)
	if err != nil || !reflect.DeepEqual(ns, ints(4)) {
		t.Fatalf("Recover: %v, records %v", err, ns)
	}
	l.Close()
	if got, _ := os.ReadFile(path); !bytes.Equal(got, healthy(t, 4)) {
		t.Fatal("recovering a healthy log changed its bytes")
	}

	if _, _, err := recoverInts(filepath.Join(t.TempDir(), "absent.wal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Recover of a missing file: err = %v, want os.ErrNotExist", err)
	}
	// A header that cannot be written leaves no file behind.
	bad := filepath.Join(t.TempDir(), "bad.wal")
	if _, err := Create(bad, make(chan int)); err == nil {
		t.Fatal("Create accepted an unencodable header")
	}
	if _, err := os.Stat(bad); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed Create left %s behind (stat: %v)", bad, err)
	}
}

// TestRecoverAtEveryByte cuts a healthy log at every length, as a crash at
// any point of any append would. Recovery must return exactly the records
// wholly inside the cut — the last one counts without its newline — or, with
// not even the header whole, refuse and leave the bytes alone; and one more
// append must leave a log that is byte-identical to a healthy one.
func TestRecoverAtEveryByte(t *testing.T) {
	const n = 5
	data := healthy(t, n)
	var ends []int // ends[i]: offset just past record i's newline
	for i := 1; i <= n; i++ {
		ends = append(ends, len(healthy(t, i)))
	}
	path := filepath.Join(t.TempDir(), "log.wal")
	for cut := 0; cut <= len(data); cut++ {
		whole := 0
		for whole < n && cut >= ends[whole]-1 {
			whole++
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, ns, err := recoverInts(path)
		if whole == 0 {
			if !errors.Is(err, errNoHeader) {
				t.Fatalf("cut=%d: err = %v, want the check's refusal", cut, err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, data[:cut]) {
				t.Fatalf("cut=%d: a refused log was modified", cut)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(ns, ints(whole)) {
			t.Fatalf("cut=%d: Recover: %v, records %v, want 0..%d", cut, err, ns, whole-1)
		}
		if err := l.Append(rec(whole)); err != nil {
			t.Fatalf("cut=%d: Append after recovery: %v", cut, err)
		}
		l.Close()
		if got, _ := os.ReadFile(path); !bytes.Equal(got, healthy(t, whole+1)) {
			t.Fatalf("cut=%d: after recovery and one append the log is %q", cut, got)
		}
		l, ns, err = recoverInts(path)
		if err != nil || !reflect.DeepEqual(ns, ints(whole+1)) {
			t.Fatalf("cut=%d: second Recover: %v, records %v, want 0..%d", cut, err, ns, whole)
		}
		l.Close()
	}
}

// faultFile is an *os.File whose next operations can be made to fail the way
// a full or failing disk makes them fail.
type faultFile struct {
	*os.File
	shortWrite   int // ≥ 0: the next Write stores this many bytes, then fails
	failSync     bool
	failTruncate bool
}

var errFault = fmt.Errorf("injected: %w", syscall.ENOSPC)

func (f *faultFile) Write(p []byte) (int, error) {
	if f.shortWrite < 0 {
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:min(f.shortWrite, len(p))])
	return n, errFault
}

func (f *faultFile) Sync() error {
	if f.failSync {
		return errFault
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if f.failTruncate {
		return errFault
	}
	return f.File.Truncate(size)
}

// TestAppendFaults fails the append of record 2 in every way an append can
// fail — the write cut short after k bytes for every k of the line, or the
// fsync refused — with the rollback working and with it failing too. When it
// works, the failed append must leave no trace: the retry and a further
// record are acknowledged and a restart finds 0..3 in a byte-identical log.
// When it does not, the log must refuse every later append (it cannot know
// what its tail holds) and a restart must still find every acknowledged
// record: 0 and 1, plus record 2 itself only where its whole line (the
// newline aside) reached the file — unacknowledged, but indistinguishable
// from a crash just before the acknowledgement.
func TestAppendFaults(t *testing.T) {
	line2, err := Frame(rec(2))
	if err != nil {
		t.Fatal(err)
	}
	type fault struct {
		name         string
		shortWrite   int
		failSync     bool
		failRollback bool
	}
	var faults []fault
	for _, failRollback := range []bool{false, true} {
		for k := 0; k < len(line2); k++ {
			faults = append(faults, fault{fmt.Sprintf("write cut at %d", k), k, false, failRollback})
		}
		faults = append(faults, fault{"fsync", -1, true, failRollback})
	}
	for _, fc := range faults {
		path := filepath.Join(t.TempDir(), "log.wal")
		l, err := Create(path, rec(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(rec(1)); err != nil {
			t.Fatal(err)
		}
		ff := &faultFile{File: l.f.(*os.File), shortWrite: fc.shortWrite, failSync: fc.failSync, failTruncate: fc.failRollback}
		l.f = ff
		failed := l.Append(rec(2))
		if !errors.Is(failed, syscall.ENOSPC) {
			t.Fatalf("%s (rollback fails: %v): Append = %v, want the injected error", fc.name, fc.failRollback, failed)
		}
		*ff = faultFile{File: ff.File, shortWrite: -1} // the disk recovers

		if !fc.failRollback {
			for i := 2; i < 4; i++ {
				if err := l.Append(rec(i)); err != nil {
					t.Fatalf("%s: Append of %d after the rolled-back failure: %v", fc.name, i, err)
				}
			}
			l.Close()
			if got, _ := os.ReadFile(path); !bytes.Equal(got, healthy(t, 4)) {
				t.Fatalf("%s: the failed append left a trace: %q", fc.name, got)
			}
			continue
		}

		for i := 0; i < 2; i++ {
			if err := l.Append(rec(2)); err != failed {
				t.Fatalf("%s: Append on a log whose rollback failed = %v, want %v again", fc.name, err, failed)
			}
		}
		l.Close()
		want := 2
		if fc.failSync || fc.shortWrite == len(line2)-1 {
			want = 3
		}
		l, ns, err := recoverInts(path)
		if err != nil || !reflect.DeepEqual(ns, ints(want)) {
			t.Fatalf("%s, rollback failed: Recover: %v, records %v, want 0..%d", fc.name, err, ns, want-1)
		}
		if err := l.Append(rec(want)); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if got, _ := os.ReadFile(path); !bytes.Equal(got, healthy(t, want+1)) {
			t.Fatalf("%s, rollback failed: after restart and one append the log is %q", fc.name, got)
		}
	}
}

// FuzzScan throws arbitrary bytes at the one framing scanner; every decoder
// in the repo (jobs.Decode, mutate.DecodeLog) is this plus a closure.
// Recovery feeds it whatever a crash left on disk, so: never panic, never
// claim a prefix outside the input, re-scanning the prefix claims it again
// with the same records, garbage after a line-terminated prefix never
// extends it, and a record the owner rejects ends the prefix before it.
func FuzzScan(f *testing.F) {
	hb := healthy(f, 4)
	f.Add(hb)
	f.Add(hb[:len(hb)/2])
	f.Add(hb[:len(hb)-1])
	f.Add(append(append([]byte{}, hb...), []byte("{\"crc\":0,\"rec\":{}}\n")...))
	f.Add(append(append([]byte{}, hb...), 0x00, 0xff, '\n'))
	flipped := append([]byte{}, hb...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)
	f.Add([]byte(`{"crc":0}` + "\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("{}"))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		count := func(data []byte, limit int) (n, valid int) {
			valid = Scan(data, func(body []byte) bool {
				if n == limit || !json.Valid(body) {
					return false
				}
				n++
				return true
			})
			return n, valid
		}
		n, valid := count(data, -1)
		if valid < 0 || valid > len(data) {
			t.Fatalf("prefix %d outside [0, %d]", valid, len(data))
		}
		if n2, valid2 := count(data[:valid], -1); valid2 != valid || n2 != n {
			t.Fatalf("prefix unstable: %d bytes and %d records, then %d and %d", valid, n, valid2, n2)
		}
		if valid == 0 || data[valid-1] == '\n' {
			garbled := append(append([]byte{}, data[:valid]...), []byte("!corrupt tail")...)
			if n3, valid3 := count(garbled, -1); valid3 != valid || n3 != n {
				t.Fatalf("garbage tail changed the prefix: %d/%d bytes, %d/%d records", valid3, valid, n3, n)
			}
		}
		if n > 0 {
			nv, vetoed := count(data, n-1)
			if nv != n-1 || vetoed >= valid || (vetoed > 0 && data[vetoed-1] != '\n') {
				t.Fatalf("rejecting record %d of %d gave %d records in %d bytes (all: %d bytes)", n-1, n, nv, vetoed, valid)
			}
		}
	})
}
