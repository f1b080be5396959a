package mutate

import (
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFailedAppendKeepsAcknowledgedBatches makes the kernel cut a log append
// short — RLIMIT_FSIZE set a few bytes past the file's end, the same short
// write ENOSPC or EDQUOT produce — and requires what /mutate promises: the
// failed Apply changes nothing, the client's retry of the same Seq succeeds,
// and a restart replays every acknowledged batch. It is wal.Log's rollback
// that is under test: were the torn bytes left in the file, the retry would be
// written after them and recovery would cut the log at the torn line, losing
// the acknowledged retry and every batch after it.
//
// The limit is process-wide, so the scenario runs in a re-exec'd child.
func TestFailedAppendKeepsAcknowledgedBatches(t *testing.T) {
	if dir := os.Getenv("MUTATE_APPEND_FAULT_DIR"); dir != "" {
		failedAppendScenario(t, filepath.Join(dir, "mutations.wal"))
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailedAppendKeepsAcknowledgedBatches$")
	cmd.Env = append(os.Environ(), "MUTATE_APPEND_FAULT_DIR="+t.TempDir())
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
}

func failedAppendScenario(t *testing.T, path string) {
	ds, _ := testModel(t)
	d := cloneDataset(ds)
	st := NewState(d.Train, nil, nil)
	log, _, err := OpenLog(path, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	st.AttachLog(log)
	if _, err := st.Apply(testBatch(d.Train, 1)); err != nil {
		t.Fatal(err)
	}

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	signal.Ignore(syscall.SIGXFSZ) // the default action kills the process
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: uint64(fi.Size()) + 10, Max: old.Max}); err != nil {
		t.Fatal(err)
	}
	b2 := testBatch(d.Train, 2)
	triples := d.Train.Len()
	_, failed := st.Apply(b2)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if failed == nil {
		t.Fatal("Apply succeeded although its log append could not fit under RLIMIT_FSIZE")
	}
	if st.Seq() != 1 || d.Train.Len() != triples {
		t.Fatalf("failed Apply (%v) moved the state: seq %d, %d -> %d triples", failed, st.Seq(), triples, d.Train.Len())
	}

	if _, err := st.Apply(b2); err != nil {
		t.Fatalf("retry of seq 2 after %q: %v", failed, err)
	}
	if _, err := st.Apply(testBatch(d.Train, 3)); err != nil {
		t.Fatal(err)
	}
	log.Close()

	log, recovered, err := OpenLog(path, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if len(recovered) != 3 {
		t.Fatalf("recovered %d batches, want the 3 that were acknowledged", len(recovered))
	}
	d2 := cloneDataset(ds)
	st2 := NewState(d2.Train, nil, nil)
	if err := st2.Replay(recovered); err != nil {
		t.Fatal(err)
	}
	if st2.Seq() != 3 || d2.Train.Len() != d.Train.Len() {
		t.Fatalf("replay reached seq %d with %d triples, live state has seq 3 with %d", st2.Seq(), d2.Train.Len(), d.Train.Len())
	}
	for _, tr := range d.Train.Triples() {
		if !d2.Train.Contains(tr) {
			t.Fatalf("replayed graph is missing %v", tr)
		}
	}
}
