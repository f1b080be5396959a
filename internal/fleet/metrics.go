package fleet

import (
	"io"
	"net/http"
	"sort"

	"repro/internal/wire"
)

// StatusResponse is the coordinator's introspection snapshot, consumed by
// scripts/ci.sh's fleet gate (which worker holds which lease) and by humans
// debugging a fleet. It is JSON, not Prometheus text, because callers read
// its structure.
type StatusResponse struct {
	Sweeps           []SweepStatus  `json:"sweeps"`
	Workers          []WorkerStatus `json:"workers"`
	Reassigned       uint64         `json:"reassigned"`
	DuplicateRecords uint64         `json:"duplicate_records"`
	RetriedUnits     uint64         `json:"retried_units"`
}

// SweepStatus reports one sweep's progress.
type SweepStatus struct {
	ID             string       `json:"id"`
	State          string       `json:"state"`
	Strategy       string       `json:"strategy"`
	TotalRelations int          `json:"total_relations"`
	DoneRelations  int          `json:"done_relations"`
	Resumed        int          `json:"resumed"`
	Reassigned     int          `json:"reassigned"`
	Duplicates     int          `json:"duplicates"`
	RetriedUnits   int          `json:"retried_units"`
	Units          []UnitStatus `json:"units"`
	Error          string       `json:"error,omitempty"`
}

// UnitStatus reports one unit's lease state.
type UnitStatus struct {
	ID        int    `json:"id"`
	State     string `json:"state"`
	Worker    string `json:"worker,omitempty"`
	Attempts  int    `json:"attempts"`
	Relations int    `json:"relations"`
}

// WorkerStatus reports one registered worker.
type WorkerStatus struct {
	Name      string `json:"name"`
	UnitsDone int    `json:"units_done"`
	LastSeen  string `json:"last_seen"`
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := StatusResponse{
		Reassigned:       c.reassignedTotal,
		DuplicateRecords: c.duplicatesTotal,
		RetriedUnits:     c.retriedTotal,
	}
	for _, id := range c.order {
		sw := c.sweeps[id]
		ss := SweepStatus{
			ID:             sw.id,
			State:          sw.state,
			Strategy:       sw.req.Strategy,
			TotalRelations: len(sw.relations),
			DoneRelations:  len(sw.done),
			Resumed:        sw.resumed,
			Reassigned:     sw.reassigned,
			Duplicates:     sw.duplicates,
			RetriedUnits:   sw.retriedUnits,
		}
		if sw.err != nil {
			ss.Error = sw.err.Error()
		}
		for _, u := range sw.units {
			ss.Units = append(ss.Units, UnitStatus{
				ID: u.id, State: u.state, Worker: u.worker,
				Attempts: u.attempts, Relations: len(u.relations),
			})
		}
		resp.Sweeps = append(resp.Sweeps, ss)
	}
	names := make([]string, 0, len(c.workers))
	for n := range c.workers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ws := c.workers[n]
		resp.Workers = append(resp.Workers, WorkerStatus{
			Name: ws.name, UnitsDone: ws.unitsDone, LastSeen: ws.lastSeen.Format("15:04:05.000"),
		})
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// handleMetrics renders the fleet gauges and counters as Prometheus text
// through the writer internal/serve uses too.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", wire.MetricsContentType)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writeMetricsLocked(w)
}

func (c *Coordinator) writeMetricsLocked(w io.Writer) {
	now := c.cfg.now()
	var live uint64
	for _, ws := range c.workers {
		if now.Sub(ws.lastSeen) <= 3*c.cfg.LeaseTTL {
			live++
		}
	}
	wire.Scalar(w, "kgfleet_workers", "gauge", "Workers heard from within three lease TTLs.", live)

	units := map[string]int{unitPending: 0, unitLeased: 0, unitDone: 0}
	sweeps := map[string]int{sweepRunning: 0, sweepDone: 0, sweepFailed: 0}
	for _, sw := range c.sweeps {
		sweeps[sw.state]++
		for _, u := range sw.units {
			units[u.state]++
		}
	}
	wire.Family(w, "kgfleet_units", "gauge", "Work units across all sweeps, by lease state.", "state", units)
	wire.Family(w, "kgfleet_sweeps", "gauge", "Sweeps hosted by this coordinator, by state.", "state", sweeps)

	wire.Scalar(w, "kgfleet_leases_total", "counter", "Unit leases granted to workers.", c.leasesTotal)
	wire.Scalar(w, "kgfleet_reassignments_total", "counter", "Units returned to the pending queue after a lease expired without heartbeats.", c.reassignedTotal)
	wire.Scalar(w, "kgfleet_unit_retries_total", "counter", "Units returned to the pending queue by an explicit worker failure report.", c.retriedTotal)
	wire.Scalar(w, "kgfleet_duplicate_records_total", "counter", "Relation records dropped because the relation was already complete (reassignment or duplicate delivery).", c.duplicatesTotal)
	wire.Scalar(w, "kgfleet_mismatched_records_total", "counter", "Relation records dropped because the relation does not belong to the sweep.", c.mismatchedTotal)
	wire.Scalar(w, "kgfleet_records_total", "counter", "Relation records accepted, journaled, and spliced.", c.recordsTotal)
	wire.Scalar(w, "kgfleet_unknown_completes_total", "counter", "Unit completions for sweeps this coordinator does not know (e.g. delivered across a restart).", c.completesUnknown)
	wire.Scalar(w, "kgfleet_sweeps_submitted_total", "counter", "Sweeps ever submitted to this coordinator.", c.sweepsSubmitted)
}
