package fleet

import (
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
		Reassigned:       c.reassigned.Value(),
		DuplicateRecords: c.duplicates.Value(),
		RetriedUnits:     c.retried.Value(),
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
