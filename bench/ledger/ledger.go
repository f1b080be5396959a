package ledger

import (
	"encoding/json"
	"fmt"
	"os"
)

// SchemaVersion is bumped whenever the meaning of a ledger field or of a
// metric changes; cmp refuses to compare ledgers of different versions.
const SchemaVersion = 1

// Ledger is one complete record of the benchmark on one commit: provenance,
// then per workload every metric of the untraced run (end-to-end) and of the
// traced run (per-layer), with the output digests.
type Ledger struct {
	Meta      Meta                       `json:"meta"`
	Workloads map[string]*WorkloadRecord `json:"workloads"`
}

// Meta pins what a ledger's numbers were measured on. Two ledgers are only
// comparable when P, GOMAXPROCS, seed, fixture hashes, preset and schema
// version agree.
type Meta struct {
	Schema     int    `json:"schema"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	P          int    `json:"p"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Runs       int    `json:"runs"`
	Preset     string `json:"preset"`
	// Parallelism is "overhead-only" when nproc is 1: fleet.* and every
	// multi-worker number then measures contention, never scaling.
	Parallelism string `json:"parallelism"`
}

// WorkloadRecord is one workload's slice of the ledger.
type WorkloadRecord struct {
	FixtureSHA256 string `json:"fixture_sha256"`
	Attempted     int    `json:"attempted"`
	Failed        int    `json:"failed"`
	// Metrics maps metric name to its values, one per run (-runs).
	Metrics map[string]*Series `json:"metrics"`
	// Samples states how many timing samples stand behind a metric.
	Samples map[string]int `json:"samples"`
	// Digests are the output digests (sweep TSVs, training fingerprints,
	// response bodies); equal seeds must give equal digests.
	Digests map[string]string `json:"digests"`
	Notes   []string          `json:"notes,omitempty"`
}

// Series is one metric's values across the runs of a ledger.
type Series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// Value is the series' median across runs.
func (s *Series) Value() float64 { return Median(s.Values) }

// Report is what one kgbench child process (one workload, one mode) hands
// back: the last line of its standard output is Result; the rest travels in
// the -report file.
type Report struct {
	Workload      string `json:"workload"`
	Trace         bool   `json:"trace"`
	FixtureSHA256 string `json:"fixture_sha256"`
	Result        Result `json:"result"`
	// All is every metric the run measured, declared for this mode or not.
	All     map[string]MetricValue `json:"all"`
	Samples map[string]int         `json:"samples"`
	Digests map[string]string      `json:"digests"`
	Notes   []string               `json:"notes,omitempty"`
}

// Result is the contract's result line.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}

// MetricValue is one reported metric.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Load reads a ledger file.
func Load(path string) (*Ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// Save writes the ledger as indented JSON (map keys sorted by encoding/json,
// so equal ledgers are equal bytes).
func (l *Ledger) Save(path string) error {
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
