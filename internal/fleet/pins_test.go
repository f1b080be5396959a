package fleet

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestCoordinatorErrorBodiesPinned fixes the bytes of the coordinator's
// 400 for an unknown field, its 413 for an oversized control message, and
// the mux's 404 for an unknown route.
func TestCoordinatorErrorBodiesPinned(t *testing.T) {
	h := New(Config{}).Handler()
	big := `{"worker":"` + strings.Repeat("a", controlBodyLimit+1) + `"}`
	for _, tt := range []struct {
		method, path, body string
		code               int
		contentType, want  string
	}{
		{"POST", "/register", `{"worker":"w1","fault":"hang"}`, 400, "application/json",
			`{"error":"invalid JSON: json: unknown field \"fault\""}` + "\n"},
		{"POST", "/lease", big, 413, "application/json",
			`{"error":"request body exceeds 1048576 bytes"}` + "\n"},
		{"GET", "/nowhere", "", 404, "text/plain; charset=utf-8", "404 page not found\n"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tt.method, tt.path, strings.NewReader(tt.body)))
		if rec.Code != tt.code || rec.Body.String() != tt.want || rec.Header().Get("Content-Type") != tt.contentType {
			t.Errorf("%s %s: %d %q (%s), want %d %q (%s)", tt.method, tt.path, rec.Code, rec.Body.String(),
				rec.Header().Get("Content-Type"), tt.code, tt.want, tt.contentType)
		}
	}
}

// TestCoordinatorMetricsPinned fixes the coordinator's metrics text under a fake
// clock: one worker heard from within three lease TTLs and one not, units
// and sweeps in every state, and distinct values in every counter.
func TestCoordinatorMetricsPinned(t *testing.T) {
	clock := time.Unix(1000, 0)
	c := New(Config{LeaseTTL: 10 * time.Second, now: func() time.Time { return clock }})
	c.workers["live"] = &workerState{name: "live", lastSeen: clock.Add(-30 * time.Second)}
	c.workers["gone"] = &workerState{name: "gone", lastSeen: clock.Add(-31 * time.Second)}
	c.sweeps["a"] = &sweep{state: sweepRunning, units: []*unit{{state: unitPending}, {state: unitLeased}, {state: unitDone}, {state: unitDone}}}
	c.sweeps["b"] = &sweep{state: sweepDone, units: []*unit{{state: unitDone}}}
	c.sweeps["c"] = &sweep{state: sweepFailed}
	for i, n := range []*wire.Counter{c.leases, c.reassigned, c.retried, c.duplicates,
		c.mismatched, c.records, c.unknownCompletes, c.sweepsSubmitted} {
		n.Add(uint64(i + 1))
	}
	var b bytes.Buffer
	c.metrics.WriteTo(&b)
	if got := b.String(); got != wantCoordinatorMetrics {
		t.Errorf("/metrics:\n%s\nwant:\n%s", got, wantCoordinatorMetrics)
	}
}

const wantCoordinatorMetrics = `# HELP kgfleet_workers Workers heard from within three lease TTLs.
# TYPE kgfleet_workers gauge
kgfleet_workers 1
# HELP kgfleet_units Work units across all sweeps, by lease state.
# TYPE kgfleet_units gauge
kgfleet_units{state="done"} 3
kgfleet_units{state="leased"} 1
kgfleet_units{state="pending"} 1
# HELP kgfleet_sweeps Sweeps hosted by this coordinator, by state.
# TYPE kgfleet_sweeps gauge
kgfleet_sweeps{state="done"} 1
kgfleet_sweeps{state="failed"} 1
kgfleet_sweeps{state="running"} 1
# HELP kgfleet_leases_total Unit leases granted to workers.
# TYPE kgfleet_leases_total counter
kgfleet_leases_total 1
# HELP kgfleet_reassignments_total Units returned to the pending queue after a lease expired without heartbeats.
# TYPE kgfleet_reassignments_total counter
kgfleet_reassignments_total 2
# HELP kgfleet_unit_retries_total Units returned to the pending queue by an explicit worker failure report.
# TYPE kgfleet_unit_retries_total counter
kgfleet_unit_retries_total 3
# HELP kgfleet_duplicate_records_total Relation records dropped because the relation was already complete (reassignment or duplicate delivery).
# TYPE kgfleet_duplicate_records_total counter
kgfleet_duplicate_records_total 4
# HELP kgfleet_mismatched_records_total Relation records dropped because the relation does not belong to the sweep.
# TYPE kgfleet_mismatched_records_total counter
kgfleet_mismatched_records_total 5
# HELP kgfleet_records_total Relation records accepted, journaled, and spliced.
# TYPE kgfleet_records_total counter
kgfleet_records_total 6
# HELP kgfleet_unknown_completes_total Unit completions for sweeps this coordinator does not know (e.g. delivered across a restart).
# TYPE kgfleet_unknown_completes_total counter
kgfleet_unknown_completes_total 7
# HELP kgfleet_sweeps_submitted_total Sweeps ever submitted to this coordinator.
# TYPE kgfleet_sweeps_submitted_total counter
kgfleet_sweeps_submitted_total 8
`
