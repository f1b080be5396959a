package harness

// Multi-process test helpers: build the repo's commands once per test
// process, run them as real child processes with captured logs, and poll
// those logs with deadlines. The root package's end-to-end fleet test uses
// these to boot a real coordinator and workers and scrape what they report.

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

// RepoRoot walks up from the working directory to the enclosing go.mod —
// the repository root every `go build ./cmd/...` must run from. Test
// binaries execute in their package directory, so the walk is short.
func RepoRoot() (string, error) {
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

// TryBuildCmd compiles ./cmd/<name> (without the race detector — the test
// binary itself carries -race when enabled) into a per-process temp
// directory and returns the binary path. Repeated calls for the same name
// share one build.
func TryBuildCmd(name string) (string, error) {
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
		root, err := RepoRoot()
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

// BuildCmdOrSkip is TryBuildCmd with a graceful skip — for tests that are a
// bonus on top of the in-process coverage and should not fail the suite
// when child binaries cannot be built (e.g. a sandbox without a writable
// build cache).
func BuildCmdOrSkip(t testing.TB, name string) string {
	t.Helper()
	path, err := TryBuildCmd(name)
	if err != nil {
		t.Skipf("skipping: %v", err)
	}
	return path
}

// Proc is one child process with its combined output captured to a file.
type Proc struct {
	Name string
	cmd  *exec.Cmd
	log  string
	wait chan error // buffered; receives cmd.Wait() exactly once

	mu     sync.Mutex
	exited bool
	err    error
}

// StartProc launches bin with args, capturing stdout+stderr to logPath. The
// process is SIGKILLed at test cleanup if still running.
func StartProc(t testing.TB, logPath, bin string, args ...string) *Proc {
	t.Helper()
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatalf("StartProc: %v", err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = f
	cmd.Stderr = f
	if err := cmd.Start(); err != nil {
		f.Close()
		t.Fatalf("StartProc %s: %v", bin, err)
	}
	f.Close() // the child holds its own descriptor
	p := &Proc{Name: filepath.Base(bin), cmd: cmd, log: logPath, wait: make(chan error, 1)}
	go func() { p.wait <- cmd.Wait() }()
	t.Cleanup(func() { p.Kill() })
	return p
}

// Log returns everything the process has written so far.
func (p *Proc) Log() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	return string(b)
}

// WaitLine polls the log until pattern matches, returning the first capture
// group (or the whole match if the pattern has none).
func (p *Proc) WaitLine(pattern string, timeout time.Duration) (string, error) {
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
func (p *Proc) MustWaitLine(t testing.TB, pattern string, timeout time.Duration) string {
	t.Helper()
	m, err := p.WaitLine(pattern, timeout)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Signal sends sig to the process.
func (p *Proc) Signal(sig os.Signal) error { return p.cmd.Process.Signal(sig) }

// Kill SIGKILLs the process and reaps it. Safe to call repeatedly and after
// the process already exited.
func (p *Proc) Kill() {
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
func (p *Proc) Wait(timeout time.Duration) error {
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
func (p *Proc) Exited() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exited
}
