package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRepoRoot(t *testing.T) {
	root, err := RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("RepoRoot %s has no go.mod: %v", root, err)
	}
}

func TestTryBuildCmdRejectsPaths(t *testing.T) {
	for _, name := range []string{"../evil", "a/b", "x.go"} {
		if _, err := TryBuildCmd(name); err == nil {
			t.Errorf("TryBuildCmd(%q) should fail", name)
		}
	}
}

func TestProcLifecycle(t *testing.T) {
	dir := t.TempDir()
	p := StartProc(t, filepath.Join(dir, "p.log"), "/bin/sh", "-c",
		`echo "listening on 127.0.0.1:12345"; sleep 60`)
	addr := p.MustWaitLine(t, `listening on (\S+)`, 5*time.Second)
	if addr != "127.0.0.1:12345" {
		t.Errorf("scraped addr %q", addr)
	}
	if p.Exited() {
		t.Error("process reported exited while sleeping")
	}
	if err := p.Wait(50 * time.Millisecond); err == nil {
		t.Error("Wait should time out on a sleeping process")
	}
	p.Kill()
	p.Kill() // idempotent
	if !p.Exited() {
		t.Error("killed process not reaped")
	}
	if !strings.Contains(p.Log(), "listening on") {
		t.Errorf("log lost: %q", p.Log())
	}
}

func TestProcWaitCleanExit(t *testing.T) {
	dir := t.TempDir()
	p := StartProc(t, filepath.Join(dir, "p.log"), "/bin/sh", "-c", "exit 0")
	if err := p.Wait(5 * time.Second); err != nil {
		t.Errorf("clean exit reported error: %v", err)
	}
	p = StartProc(t, filepath.Join(dir, "q.log"), "/bin/sh", "-c", "exit 3")
	if err := p.Wait(5 * time.Second); err == nil {
		t.Error("exit 3 reported no error")
	}
}
