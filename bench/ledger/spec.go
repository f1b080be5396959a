package ledger

import (
	"encoding/json"
	"fmt"
	"os"
)

// Spec is BENCHMARK.json: the command, the workloads, and the declared
// end-to-end and per-layer metrics.
type Spec struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// Workload is one declared workload.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric is one declared metric. Bound is only present on end-to-end
// metrics: the share of the parent's median by which it may worsen.
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json from path.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
