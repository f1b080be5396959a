package repro

// Multi-process test helpers: build the repo's commands once per test
// process, run them as real child processes with captured logs, and poll
// those logs with deadlines. The end-to-end fleet test uses these to boot a
// real coordinator and workers and scrape what they report.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// repoRoot walks up from the working directory to the enclosing go.mod —
// the repository root every `go build ./cmd/...` must run from. Test
// binaries execute in their package directory, so the walk is short.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

var (
	binDirOnce sync.Once
	binDir     string
	binDirErr  error

	buildMu sync.Mutex
	builds  = map[string]*buildResult{}
)

type buildResult struct {
	once sync.Once
	path string
	err  error
}

// tryBuildCmd compiles ./cmd/<name> (without the race detector — the test
// binary itself carries -race when enabled) into a per-process temp
// directory and returns the binary path. Repeated calls for the same name
// share one build.
func tryBuildCmd(name string) (string, error) {
	if strings.ContainsAny(name, "/\\.") {
		return "", fmt.Errorf("command name %q must be a bare cmd/ directory name", name)
	}
	binDirOnce.Do(func() {
		binDir, binDirErr = os.MkdirTemp("", "repro-bin-")
	})
	if binDirErr != nil {
		return "", binDirErr
	}
	buildMu.Lock()
	b, ok := builds[name]
	if !ok {
		b = &buildResult{}
		builds[name] = b
	}
	buildMu.Unlock()
	b.once.Do(func() {
		root, err := repoRoot()
		if err != nil {
			b.err = err
			return
		}
		out := filepath.Join(binDir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Dir = root
		if msg, err := cmd.CombinedOutput(); err != nil {
			b.err = fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, msg)
			return
		}
		b.path = out
	})
	return b.path, b.err
}

// buildCmdOrSkip is tryBuildCmd with a graceful skip — for tests that are a
// bonus on top of the in-process coverage and should not fail the suite
// when child binaries cannot be built (e.g. a sandbox without a writable
// build cache).
func buildCmdOrSkip(t testing.TB, name string) string {
	t.Helper()
	path, err := tryBuildCmd(name)
	if err != nil {
		t.Skipf("skipping: %v", err)
	}
	return path
}

// childProc is one child process with its combined output captured to a file.
type childProc struct {
	Name string
	cmd  *exec.Cmd
	log  string
	wait chan error // buffered; receives cmd.Wait() exactly once

	mu     sync.Mutex
	exited bool
	err    error
}

// startProc launches bin with args, capturing stdout+stderr to logPath. The
// process is SIGKILLed at test cleanup if still running.
func startProc(t testing.TB, logPath, bin string, args ...string) *childProc {
	t.Helper()
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatalf("startProc: %v", err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = f
	cmd.Stderr = f
	if err := cmd.Start(); err != nil {
		f.Close()
		t.Fatalf("startProc %s: %v", bin, err)
	}
	f.Close() // the child holds its own descriptor
	p := &childProc{Name: filepath.Base(bin), cmd: cmd, log: logPath, wait: make(chan error, 1)}
	go func() { p.wait <- cmd.Wait() }()
	t.Cleanup(func() { p.Kill() })
	return p
}

// Log returns everything the process has written so far.
func (p *childProc) Log() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	return string(b)
}

// WaitLine polls the log until pattern matches, returning the first capture
// group (or the whole match if the pattern has none).
func (p *childProc) WaitLine(pattern string, timeout time.Duration) (string, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return "", err
	}
	deadline := time.Now().Add(timeout)
	for {
		if m := re.FindStringSubmatch(p.Log()); m != nil {
			if len(m) > 1 {
				return m[1], nil
			}
			return m[0], nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s: no %q within %s; log:\n%s", p.Name, pattern, timeout, p.Log())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// MustWaitLine is WaitLine with a fatal failure.
func (p *childProc) MustWaitLine(t testing.TB, pattern string, timeout time.Duration) string {
	t.Helper()
	m, err := p.WaitLine(pattern, timeout)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Signal sends sig to the process.
func (p *childProc) Signal(sig os.Signal) error { return p.cmd.Process.Signal(sig) }

// Kill SIGKILLs the process and reaps it. Safe to call repeatedly and after
// the process already exited.
func (p *childProc) Kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.exited {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	p.err = <-p.wait
	p.exited = true
}

// Wait blocks until the process exits on its own, returning its exit error
// (nil for status 0). It fails the wait — without killing — on timeout.
func (p *childProc) Wait(timeout time.Duration) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.exited {
		return p.err
	}
	select {
	case err := <-p.wait:
		p.exited = true
		p.err = err
		return err
	case <-time.After(timeout):
		return fmt.Errorf("%s: still running after %s; log:\n%s", p.Name, timeout, p.Log())
	}
}

// Exited reports whether the process has been reaped by Kill or Wait.
func (p *childProc) Exited() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exited
}

func TestRepoRoot(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("repoRoot %s has no go.mod: %v", root, err)
	}
}

func TestTryBuildCmdRejectsPaths(t *testing.T) {
	for _, name := range []string{"../evil", "a/b", "x.go"} {
		if _, err := tryBuildCmd(name); err == nil {
			t.Errorf("tryBuildCmd(%q) should fail", name)
		}
	}
}

func TestProcLifecycle(t *testing.T) {
	dir := t.TempDir()
	p := startProc(t, filepath.Join(dir, "p.log"), "/bin/sh", "-c",
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
	p := startProc(t, filepath.Join(dir, "p.log"), "/bin/sh", "-c", "exit 0")
	if err := p.Wait(5 * time.Second); err != nil {
		t.Errorf("clean exit reported error: %v", err)
	}
	p = startProc(t, filepath.Join(dir, "q.log"), "/bin/sh", "-c", "exit 3")
	if err := p.Wait(5 * time.Second); err == nil {
		t.Error("exit 3 reported no error")
	}
}
