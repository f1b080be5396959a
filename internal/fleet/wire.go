package fleet

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/kg"
)

// Lease/heartbeat/complete response status values.
const (
	// StatusUnit means the lease response carries a unit to execute.
	StatusUnit = "unit"
	// StatusWait means no unit is available right now; poll again.
	StatusWait = "wait"
	// StatusOK acknowledges a heartbeat, completion, or failure report.
	StatusOK = "ok"
	// StatusAbandon tells a heartbeating worker its unit has been
	// reassigned (its lease expired); it should cancel the sweep.
	StatusAbandon = "abandon"
	// StatusUnknown means the coordinator does not know the sweep or unit
	// (e.g. it was restarted with different unit boundaries); the worker
	// drops the result and polls for fresh work.
	StatusUnknown = "unknown"
)

// Body size limits for the coordinator's endpoints. Control messages are
// tiny; completions carry every fact a unit discovered.
const (
	controlBodyLimit  = 1 << 20
	completeBodyLimit = 64 << 20
)

// SweepOptions is the serializable, output-affecting subset of core.Options
// a fleet sweep supports: a fleet run must be a pure function of what
// crosses the wire. Every sweep ranks raw through the dense path; filtered
// ranking, the weight cache and pruning are reachable only from bench/kgbench.
type SweepOptions struct {
	TopN          int   `json:"top_n"`
	MaxCandidates int   `json:"max_candidates"`
	Seed          int64 `json:"seed"`
}

// CoreOptions expands the wire options into core.Options with the same
// defaulting jobs.Run applies, so the options hash computed from them is
// identical on the coordinator and on every worker.
func (o SweepOptions) CoreOptions() core.Options {
	return core.Options{
		TopN:          o.TopN,
		MaxCandidates: o.MaxCandidates,
		Seed:          o.Seed,
	}.WithOutputDefaults()
}

// SweepRequest submits one distributed discovery sweep. Data and Model are
// filesystem paths valid on the coordinator and on every worker (the fleet
// assumes a shared filesystem or pre-distributed artifacts; workers verify
// what they open against the coordinator's fingerprint and options hash, so
// a stale or divergent copy is refused, never silently swept).
type SweepRequest struct {
	Data     string       `json:"data"`
	Model    string       `json:"model"`
	Strategy string       `json:"strategy"`
	Options  SweepOptions `json:"options"`
	// Checkpoint is the coordinator-side WAL path; empty disables crash
	// resume. Resume permits continuing an existing WAL, exactly like
	// jobs.Spec.
	Checkpoint string `json:"checkpoint,omitempty"`
	Resume     bool   `json:"resume,omitempty"`
	// UnitRelations is the number of relations per work unit (the shard
	// granularity). Zero means 1: maximum reassignment granularity.
	UnitRelations int `json:"unit_relations,omitempty"`
}

// Validate rejects a request that cannot identify a sweep or whose top_n or
// max_candidates /discover would refuse: negative, or above the ceiling.
func (r SweepRequest) Validate() error {
	if r.Data == "" || r.Model == "" {
		return errors.New("fleet: sweep request requires data and model paths")
	}
	if r.Strategy == "" {
		return errors.New("fleet: sweep request requires a strategy")
	}
	if r.Resume && r.Checkpoint == "" {
		return errors.New("fleet: resume requires a checkpoint path")
	}
	if o := r.Options; r.UnitRelations < 0 || o.TopN < 0 || o.MaxCandidates < 0 || o.MaxCandidates > core.MaxCandidatesCeiling {
		return fmt.Errorf("fleet: unit_relations, top_n and max_candidates must be >= 0 and max_candidates at most %d, got %d/%d/%d",
			core.MaxCandidatesCeiling, r.UnitRelations, o.TopN, o.MaxCandidates)
	}
	return nil
}

// FleetInfo summarizes how a sweep executed across the fleet.
type FleetInfo struct {
	Units            int `json:"units"`
	Workers          int `json:"workers"` // distinct workers that completed records
	Reassigned       int `json:"reassigned"`
	DuplicateRecords int `json:"duplicate_records"`
	RetriedUnits     int `json:"retried_units"`
	Resumed          int `json:"resumed"` // relations recovered from the coordinator WAL
	TotalRelations   int `json:"total_relations"`
}

// SweepResponse is the completed sweep: the spliced facts (byte-identical,
// after TSV rendering, to a single-process jobs.Run with the same inputs)
// plus aggregate stats and fleet accounting.
type SweepResponse struct {
	SweepID     string            `json:"sweep_id"`
	Fingerprint string            `json:"fingerprint"`
	Facts       []jobs.FactRecord `json:"facts"`
	Generated   int               `json:"generated"`
	ScoreSweeps int               `json:"score_sweeps"`
	RuntimeMS   int64             `json:"runtime_ms"`
	WeightMS    int64             `json:"weight_ms"`
	GenerateMS  int64             `json:"generate_ms"`
	RankMS      int64             `json:"rank_ms"`
	Fleet       FleetInfo         `json:"fleet"`
}

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	Worker string `json:"worker"`
	PID    int    `json:"pid,omitempty"`
}

// RegisterResponse acknowledges registration and tells the worker the
// coordinator's cadence.
type RegisterResponse struct {
	Status  string `json:"status"`
	LeaseMS int64  `json:"lease_ms"`
	PollMS  int64  `json:"poll_ms"`
}

// LeaseRequest asks for one unit of work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Unit is one leased shard of a sweep: which relations to sweep, and
// everything needed to reproduce the coordinator's exact run identity —
// artifact paths, the model fingerprint, the options, and the full sweep
// relation list so the worker can recompute and verify the options hash.
type Unit struct {
	SweepID        string          `json:"sweep_id"`
	UnitID         int             `json:"unit_id"`
	Data           string          `json:"data"`
	Model          string          `json:"model"`
	Fingerprint    string          `json:"fingerprint"`
	OptionsHash    string          `json:"options_hash"`
	Strategy       string          `json:"strategy"`
	Options        SweepOptions    `json:"options"`
	Relations      []kg.RelationID `json:"relations"`
	SweepRelations []kg.RelationID `json:"sweep_relations"`
	LeaseMS        int64           `json:"lease_ms"`
}

// LeaseResponse grants a unit or asks the worker to wait.
type LeaseResponse struct {
	Status  string `json:"status"` // StatusUnit or StatusWait
	Unit    *Unit  `json:"unit,omitempty"`
	RetryMS int64  `json:"retry_ms,omitempty"`
}

// HeartbeatRequest extends a unit's lease.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	SweepID string `json:"sweep_id"`
	UnitID  int    `json:"unit_id"`
}

// HeartbeatResponse is StatusOK while the lease holds, StatusAbandon once
// the unit has been reassigned (or finished elsewhere), StatusUnknown if
// the coordinator no longer knows the sweep.
type HeartbeatResponse struct {
	Status string `json:"status"`
}

// CompleteRequest delivers a unit's per-relation records. Records are the
// same wire format the job WAL journals, so the coordinator can fsync each
// one before acknowledging.
type CompleteRequest struct {
	Worker  string                `json:"worker"`
	SweepID string                `json:"sweep_id"`
	UnitID  int                   `json:"unit_id"`
	Records []jobs.RelationRecord `json:"records"`
}

// CompleteResponse acknowledges a delivery with exact accounting: how many
// records were accepted (journaled and spliced) and how many were dropped
// as duplicates of already-completed relations. A reassigned unit's second
// delivery is all duplicates — detected, counted, never double-spliced.
type CompleteResponse struct {
	Status     string `json:"status"` // StatusOK or StatusUnknown
	Accepted   int    `json:"accepted"`
	Duplicates int    `json:"duplicates"`
}

// FailRequest reports that a worker could not finish a unit. Permanent
// marks errors retrying cannot fix on this worker (fingerprint or options
// hash mismatch — the worker's artifact copies diverge).
type FailRequest struct {
	Worker    string `json:"worker"`
	SweepID   string `json:"sweep_id"`
	UnitID    int    `json:"unit_id"`
	Error     string `json:"error"`
	Permanent bool   `json:"permanent,omitempty"`
}

// FailResponse acknowledges a failure report.
type FailResponse struct {
	Status string `json:"status"`
}
