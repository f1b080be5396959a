package fleet_test

// Multi-process integration harness for the discovery fleet: boots a real
// coordinator and real worker processes (built from this tree), runs a
// 50k-entity sweep through them, and asserts the spliced TSV is
// byte-identical to a single-process kgdiscover run — in the clean case and
// under every injected fault: a worker SIGKILLed mid-unit, a worker that
// stops heartbeating, duplicate unit delivery, a worker that hangs forever,
// and a coordinator SIGKILL resumed from its WAL.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
)

// Sweep parameters shared by every scenario and the single-process
// reference. The model is deliberately untrained: scores from seeded random
// embeddings are as deterministic as trained ones and make the 50k-entity
// fixture cheap to build.
// With untrained (seeded random) embeddings a candidate's rank is roughly
// uniform over the 50k entities, so TopN has to be generous for the sweep
// to keep a meaningful number of facts (~4% of 200 candidates/relation).
const (
	sweepStrategy = "graph_degree"
	sweepTopN     = "2000"
	sweepMaxCand  = "200"
	sweepSeed     = "7"
	numRelations  = 12
)

var arts struct {
	once      sync.Once
	err       error
	dataDir   string
	modelPath string
	refTSV    string
	ref       []byte
}

// artifacts builds the shared fixture once per test process: a 50k-entity
// dataset, a flat checkpoint, and the single-process reference TSV produced
// by the kgdiscover binary with the exact sweep options the fleet runs.
func artifacts(t *testing.T) (dataDir, modelPath string, ref []byte) {
	t.Helper()
	arts.once.Do(func() {
		dir, err := os.MkdirTemp("", "fleet-arts-")
		if err != nil {
			arts.err = err
			return
		}
		ds, err := synth.Generate(synth.Config{
			Name:         "fleet50k",
			NumEntities:  50000,
			NumRelations: numRelations,
			NumTriples:   150000,
			NumTypes:     8,
			EntityZipf:   1.0,
			RelationZipf: 0.9,
			ClosureProb:  0.2,
			NoiseProb:    0.05,
			ValidFrac:    0.02,
			TestFrac:     0.02,
			Seed:         11,
		})
		if err != nil {
			arts.err = fmt.Errorf("generate: %w", err)
			return
		}
		arts.dataDir = filepath.Join(dir, "ds")
		if err := kg.SaveDataset(ds, arts.dataDir); err != nil {
			arts.err = err
			return
		}
		m, err := kge.New("distmult", kge.Config{
			NumEntities:  ds.Train.Entities.Len(),
			NumRelations: ds.Train.Relations.Len(),
			Dim:          16,
			Seed:         3,
		})
		if err != nil {
			arts.err = err
			return
		}
		arts.modelPath = filepath.Join(dir, "model.kge")
		if err := kge.SaveFile(m, arts.modelPath); err != nil {
			arts.err = err
			return
		}

		bin, err := harness.TryBuildCmd("kgdiscover")
		if err != nil {
			arts.err = err
			return
		}
		arts.refTSV = filepath.Join(dir, "reference.tsv")
		cmd := refCmd(bin, arts.refTSV)
		if msg, err := cmd.CombinedOutput(); err != nil {
			arts.err = fmt.Errorf("reference kgdiscover: %v\n%s", err, msg)
			return
		}
		arts.ref, arts.err = os.ReadFile(arts.refTSV)
		if arts.err == nil && len(arts.ref) == 0 {
			arts.err = fmt.Errorf("reference sweep discovered no facts")
		}
	})
	if arts.err != nil {
		t.Fatalf("building fleet fixture: %v", arts.err)
	}
	return arts.dataDir, arts.modelPath, arts.ref
}

// workerSpec describes one worker process in a scenario.
type workerSpec struct {
	name  string
	extra []string // fault-injection flags
}

// fleetScenario is one row of the fault matrix.
type fleetScenario struct {
	name       string
	lease      string
	workers    []workerSpec
	coordExtra []string
	// during runs while the fleet executes — this is where workers get
	// SIGKILLed. It may be nil.
	during func(t *testing.T, r *fleetRun)
	// waitWorkers names the workers expected to exit 0 on their own
	// (faulty ones are killed by cleanup instead).
	waitWorkers []string
	// Exact accounting asserted against the coordinator's final summary.
	wantReassignedMin int
	wantReassignedMax int
	wantDuplicatesMin int
	wantDuplicatesMax int
	scrapeMetrics     bool
}

// fleetRun is a live scenario: the processes plus the coordinator address.
type fleetRun struct {
	addr    string
	coord   *harness.Proc
	workers map[string]*harness.Proc
	outTSV  string
}

func (r *fleetRun) status(t *testing.T) fleet.StatusResponse {
	t.Helper()
	var st fleet.StatusResponse
	resp, err := http.Get("http://" + r.addr + "/status")
	if err != nil {
		return st // coordinator mid-restart: empty snapshot
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/status decode: %v", err)
	}
	return st
}

func workerUnitsDone(st fleet.StatusResponse, name string) int {
	for _, w := range st.Workers {
		if w.Name == name {
			return w.UnitsDone
		}
	}
	return 0
}

func hasLeaseTo(st fleet.StatusResponse, name string) bool {
	for _, sw := range st.Sweeps {
		for _, u := range sw.Units {
			if u.State == "leased" && u.Worker == name {
				return true
			}
		}
	}
	return false
}

func totalUnitsDone(st fleet.StatusResponse) int {
	n := 0
	for _, sw := range st.Sweeps {
		for _, u := range sw.Units {
			if u.State == "done" {
				n++
			}
		}
	}
	return n
}

// killMidUnit blocks until the sweep is demonstrably under way (some unit
// delivered) and worker name currently holds a lease, then SIGKILLs it — a
// crash mid-unit by construction (the worker's per-relation sleep keeps its
// lease window wide). The "some unit done" gate is deliberately fleet-wide,
// not per-victim: the fast workers can drain every other unit before the
// slow victim finishes its first, so waiting for the victim itself to
// deliver could starve forever.
func killMidUnit(t *testing.T, r *fleetRun, name string) {
	t.Helper()
	ok := harness.PollUntil(90*time.Second, func() bool {
		st := r.status(t)
		return totalUnitsDone(st) >= 1 && hasLeaseTo(st, name)
	})
	if !ok {
		t.Fatalf("worker %s never observed mid-unit\ncoordinator log:\n%s", name, r.coord.Log())
	}
	r.workers[name].Kill()
}

var summaryRE = regexp.MustCompile(`fleet: units=(\d+) workers=(\d+) reassigned=(\d+) duplicates=(\d+) retried=(\d+) resumed=(\d+)`)

// runScenario boots the fleet described by sc, waits for the one-shot
// coordinator to finish, and returns the parsed accounting summary.
func runScenario(t *testing.T, sc fleetScenario) (reassigned, duplicates, resumed int) {
	t.Helper()
	dataDir, modelPath, ref := artifacts(t)
	bin := harness.BuildCmd(t, "kgfleet")
	dir := t.TempDir()
	outTSV := filepath.Join(dir, "facts.tsv")

	lease := sc.lease
	if lease == "" {
		lease = "1500ms"
	}
	coordArgs := append([]string{"coord", "-addr", "127.0.0.1:0",
		"-data", dataDir, "-model", modelPath,
		"-strategy", sweepStrategy, "-top_n", sweepTopN, "-max_candidates", sweepMaxCand, "-seed", sweepSeed,
		"-out", outTSV, "-limit", "0", "-unit", "1",
		"-lease", lease, "-poll", "100ms", "-drain", "1s"}, sc.coordExtra...)
	coord := harness.StartProc(t, filepath.Join(dir, "coord.log"), bin, coordArgs...)
	addr := coord.MustWaitLine(t, `coordinator listening on (\S+)`, 30*time.Second)

	r := &fleetRun{addr: addr, coord: coord, workers: map[string]*harness.Proc{}, outTSV: outTSV}
	for _, ws := range sc.workers {
		args := append([]string{"worker", "-coord", "http://" + addr,
			"-name", ws.name, "-max-idle", "120s"}, ws.extra...)
		r.workers[ws.name] = harness.StartProc(t, filepath.Join(dir, ws.name+".log"), bin, args...)
	}

	if sc.during != nil {
		sc.during(t, r)
	}

	if sc.scrapeMetrics {
		coord.MustWaitLine(t, `sweep complete:`, 3*time.Minute)
		assertMetrics(t, r, sc)
		// SIGTERM cuts the coordinator's drain short, so let the surviving
		// workers poll the lingering coordinator and take their shutdown order
		// first: one stranded between its last delivery and its next poll
		// would retry a dead address until -max-idle, past the wait below.
		for _, name := range sc.waitWorkers {
			if err := r.workers[name].Wait(60 * time.Second); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}
		if err := coord.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("SIGTERM coordinator: %v", err)
		}
	}
	if err := coord.Wait(3 * time.Minute); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for _, name := range sc.waitWorkers {
		if err := r.workers[name].Wait(60 * time.Second); err != nil {
			t.Errorf("worker %s: %v", name, err)
		}
	}

	got, err := os.ReadFile(outTSV)
	if err != nil {
		t.Fatalf("fleet TSV: %v\ncoordinator log:\n%s", err, coord.Log())
	}
	if string(got) != string(ref) {
		t.Errorf("fleet TSV differs from single-process reference (%d vs %d bytes)\ncoordinator log:\n%s",
			len(got), len(ref), coord.Log())
	}

	m := summaryRE.FindStringSubmatch(coord.Log())
	if m == nil {
		t.Fatalf("coordinator printed no fleet summary:\n%s", coord.Log())
	}
	atoi := func(s string) int { n, _ := strconv.Atoi(s); return n }
	reassigned, duplicates, resumed = atoi(m[3]), atoi(m[4]), atoi(m[6])
	return reassigned, duplicates, resumed
}

func assertMetrics(t *testing.T, r *fleetRun, sc fleetScenario) {
	t.Helper()
	resp, err := http.Get("http://" + r.addr + "/metrics")
	if err != nil {
		t.Fatalf("/metrics during linger: %v", err)
	}
	defer resp.Body.Close()
	var body [1 << 16]byte
	n, _ := resp.Body.Read(body[:])
	text := string(body[:n])
	metric := func(name string) int {
		m := regexp.MustCompile(name + ` (\d+)`).FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("metric %s missing:\n%s", name, text)
		}
		v, _ := strconv.Atoi(m[1])
		return v
	}
	if v := metric("kgfleet_reassignments_total"); v < sc.wantReassignedMin {
		t.Errorf("kgfleet_reassignments_total = %d, want >= %d", v, sc.wantReassignedMin)
	}
	// Exactly one accepted record per relation, ever: the dedup layer makes
	// double-splicing structurally impossible, and this pins it.
	if v := metric("kgfleet_records_total"); v != numRelations {
		t.Errorf("kgfleet_records_total = %d, want exactly %d", v, numRelations)
	}
}

// TestFleetFaultMatrix is the table-driven fault-injection matrix: every row
// must produce byte-identical output and exact unit accounting.
func TestFleetFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet harness")
	}
	scenarios := []fleetScenario{
		{
			name: "clean",
			// Generous lease: under -race on a loaded single-core host the
			// instrumented test binary can starve the (uninstrumented)
			// children for over a second, and a tight lease would read that
			// scheduling hiccup as a dead worker. Zero reassignments must
			// mean zero faults, not zero load.
			lease: "10s",
			workers: []workerSpec{
				{name: "w0", extra: []string{"-fault-sleep-per-relation", "50ms"}},
				{name: "w1", extra: []string{"-fault-sleep-per-relation", "50ms"}},
			},
			waitWorkers:       []string{"w0", "w1"},
			wantReassignedMax: 0,
			wantDuplicatesMax: 0,
		},
		{
			name: "worker-sigkill-mid-unit",
			workers: []workerSpec{
				{name: "w0", extra: []string{"-fault-sleep-per-relation", "800ms"}},
				{name: "w1", extra: []string{"-fault-sleep-per-relation", "100ms"}},
				{name: "w2", extra: []string{"-fault-sleep-per-relation", "100ms"}},
			},
			during:            func(t *testing.T, r *fleetRun) { killMidUnit(t, r, "w0") },
			waitWorkers:       []string{"w1", "w2"},
			wantReassignedMin: 1,
			wantDuplicatesMax: numRelations,
			scrapeMetrics:     true,
			coordExtra:        []string{"-linger", "30s"},
		},
		{
			name: "dropped-heartbeats",
			workers: []workerSpec{
				// w0 heartbeats for its first unit, then goes silent while
				// still sweeping (2.5s per relation vs a 1.5s lease): its
				// leases expire, its late deliveries are deduped. w1 is
				// slowed too so pending units remain once w0 goes mute.
				{name: "w0", extra: []string{"-fault-mute-after", "1", "-fault-sleep-per-relation", "2500ms"}},
				{name: "w1", extra: []string{"-fault-sleep-per-relation", "600ms"}},
			},
			waitWorkers:       []string{"w1"},
			wantReassignedMin: 1,
			wantDuplicatesMax: numRelations,
		},
		{
			name: "duplicate-delivery",
			workers: []workerSpec{
				{name: "w0", extra: []string{"-fault-dup-complete", "-fault-sleep-per-relation", "100ms"}},
				{name: "w1", extra: []string{"-fault-sleep-per-relation", "100ms"}},
			},
			waitWorkers:       []string{"w0", "w1"},
			wantReassignedMax: 0,
			wantDuplicatesMin: 1,
			wantDuplicatesMax: numRelations,
		},
		{
			name: "worker-hang-mid-unit",
			workers: []workerSpec{
				// w0 wedges forever (alive, silent) one relation into its
				// second unit; the lease expires and the unit moves on.
				{name: "w0", extra: []string{"-fault-hang-after", "1", "-fault-sleep-per-relation", "100ms"}},
				{name: "w1", extra: []string{"-fault-sleep-per-relation", "100ms"}},
			},
			waitWorkers:       []string{"w1"},
			wantReassignedMin: 1,
			wantDuplicatesMax: numRelations,
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			reassigned, duplicates, resumed := runScenario(t, sc)
			if reassigned < sc.wantReassignedMin {
				t.Errorf("reassigned = %d, want >= %d", reassigned, sc.wantReassignedMin)
			}
			if sc.wantReassignedMin == 0 && reassigned > sc.wantReassignedMax {
				t.Errorf("reassigned = %d, want <= %d", reassigned, sc.wantReassignedMax)
			}
			if duplicates < sc.wantDuplicatesMin {
				t.Errorf("duplicates = %d, want >= %d", duplicates, sc.wantDuplicatesMin)
			}
			if duplicates > sc.wantDuplicatesMax {
				t.Errorf("duplicates = %d, want <= %d", duplicates, sc.wantDuplicatesMax)
			}
			if resumed != 0 {
				t.Errorf("resumed = %d, want 0 (no checkpoint in this scenario)", resumed)
			}
		})
	}
}

// TestFleetCoordinatorCrashResume SIGKILLs the coordinator mid-sweep and
// restarts it on the same port with -resume: the WAL replays the already
// accepted relations, surviving workers reattach, and the final TSV is
// byte-identical to the single-process reference.
func TestFleetCoordinatorCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet harness")
	}
	dataDir, modelPath, ref := artifacts(t)
	bin := harness.BuildCmd(t, "kgfleet")
	dir := t.TempDir()
	outTSV := filepath.Join(dir, "facts.tsv")
	wal := filepath.Join(dir, "sweep.wal")

	coordArgs := func(addr string, extra ...string) []string {
		return append([]string{"coord", "-addr", addr,
			"-data", dataDir, "-model", modelPath,
			"-strategy", sweepStrategy, "-top_n", sweepTopN, "-max_candidates", sweepMaxCand, "-seed", sweepSeed,
			"-out", outTSV, "-limit", "0", "-unit", "1",
			"-lease", "1500ms", "-poll", "100ms", "-drain", "2s",
			"-checkpoint", wal}, extra...)
	}
	coord := harness.StartProc(t, filepath.Join(dir, "coord1.log"), bin, coordArgs("127.0.0.1:0")...)
	addr := coord.MustWaitLine(t, `coordinator listening on (\S+)`, 30*time.Second)

	r := &fleetRun{addr: addr, coord: coord, workers: map[string]*harness.Proc{}}
	for _, name := range []string{"w0", "w1"} {
		r.workers[name] = harness.StartProc(t, filepath.Join(dir, name+".log"), bin,
			"worker", "-coord", "http://"+addr, "-name", name, "-max-idle", "120s",
			"-fault-sleep-per-relation", "300ms")
	}

	// Let the fleet journal a few relations, then pull the plug.
	ok := harness.PollUntil(90*time.Second, func() bool {
		st := r.status(t)
		return len(st.Sweeps) == 1 && st.Sweeps[0].DoneRelations >= 3 &&
			st.Sweeps[0].DoneRelations < numRelations
	})
	if !ok {
		t.Fatalf("sweep never reached the kill window\ncoordinator log:\n%s", coord.Log())
	}
	coord.Kill()

	// Same port, same WAL, -resume: the workers' retry loops reattach to
	// the new incarnation without restarting.
	coord2 := harness.StartProc(t, filepath.Join(dir, "coord2.log"), bin,
		coordArgs(addr, "-resume")...)
	if err := coord2.Wait(3 * time.Minute); err != nil {
		t.Fatalf("resumed coordinator: %v", err)
	}
	for name, p := range r.workers {
		if err := p.Wait(60 * time.Second); err != nil {
			t.Errorf("worker %s after coordinator restart: %v", name, err)
		}
	}

	resumed, err := coord2.WaitLine(`checkpoint: resumed (\d+) of \d+ relations`, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := strconv.Atoi(resumed); n < 3 {
		t.Errorf("resumed %s relations from the WAL, want >= 3\nlog:\n%s", resumed, coord2.Log())
	}

	got, err := os.ReadFile(outTSV)
	if err != nil {
		t.Fatalf("fleet TSV: %v\nresumed coordinator log:\n%s", err, coord2.Log())
	}
	if string(got) != string(ref) {
		t.Errorf("post-crash fleet TSV differs from single-process reference (%d vs %d bytes)\nlog:\n%s",
			len(got), len(ref), coord2.Log())
	}
}

// refCmd builds the single-process reference command; split out so the
// fixture's sweep options visibly match the fleet scenarios'.
func refCmd(bin, out string) *exec.Cmd {
	return exec.Command(bin,
		"-data", arts.dataDir, "-model", arts.modelPath,
		"-strategy", sweepStrategy, "-top_n", sweepTopN, "-max_candidates", sweepMaxCand,
		"-seed", sweepSeed, "-limit", "0", "-out", out)
}
