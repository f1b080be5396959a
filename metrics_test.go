package repro

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/wire"
)

// TestMetricsExposition reads /metrics over HTTP from a kgserve that has
// answered one request on every route and taken one job, and from a fleet
// coordinator that has run one sweep. Each family's HELP and TYPE lines
// appear once, together, before its samples; every sample belongs to the
// family declared last; and the reply carries the Prometheus content type.
func TestMetricsExposition(t *testing.T) {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dataDir, modelPath := filepath.Join(t.TempDir(), "ds"), filepath.Join(t.TempDir(), "m.kgf")
	if err := kg.SaveDataset(ds, dataDir); err != nil {
		t.Fatal(err)
	}
	m, err := kge.New("distmult", kge.Config{NumEntities: ds.Train.Entities.Len(), NumRelations: ds.Train.Relations.Len(), Dim: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := kge.SaveFlatFile(m, modelPath); err != nil {
		t.Fatal(err)
	}

	t.Run("kgserve", func(t *testing.T) {
		srv, err := serve.New(ds, m, serve.Config{Logger: log.New(io.Discard, "", 0)})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		e0, e1, r0 := ds.Train.Entities.Name(0), ds.Train.Entities.Name(1), ds.Train.Relations.Name(0)
		triple := fmt.Sprintf(`{"subject":%q,"relation":%q,"object":%q}`, e0, r0, e1)
		var job struct{ ID string }
		if err := json.Unmarshal([]byte(request(t, hs.URL, "POST", "/jobs", `{"strategy":"graph_degree","top_n":5}`)), &job); err != nil || job.ID == "" {
			t.Fatalf("POST /jobs: %v, id %q", err, job.ID)
		}
		id := job.ID
		for _, rq := range [][3]string{
			{"GET", "/healthz", ""},
			{"GET", "/stats", ""},
			{"POST", "/score", triple},
			{"POST", "/rank", triple},
			{"POST", "/query", fmt.Sprintf(`{"subject":%q,"relation":%q,"k":3}`, e0, r0)},
			{"POST", "/discover", `{"strategy":"graph_degree","top_n":5}`},
			{"POST", "/mutate", fmt.Sprintf(`{"seq":1,"ops":[{"op":"add","s":%q,"r":%q,"o":%q}]}`, e1, r0, e0)},
			{"GET", "/jobs", ""},
			{"GET", "/jobs/" + id, ""},
			{"GET", "/jobs/" + id + "/result", ""},
			{"DELETE", "/jobs/" + id, ""},
			{"GET", "/models", ""},
			{"POST", "/models", fmt.Sprintf(`{"path":%q}`, modelPath)},
			{"DELETE", "/models/" + strings.Repeat("0", 64), ""},
		} {
			request(t, hs.URL, rq[0], rq[1], rq[2])
		}
		text := checkExposition(t, hs.URL, "kgserve_requests_total", "kgserve_model_info", "kgserve_jobs", "kgserve_jobs_evicted_total")
		for _, route := range []string{"/healthz", "/stats", "/score", "/rank", "/query", "/discover", "/mutate",
			"/jobs", "/jobs/{id}", "/models", "/models/{fp}"} {
			if !strings.Contains(text, fmt.Sprintf("kgserve_request_duration_seconds_count{route=%q} ", route)) {
				t.Errorf("no latency series for route %s", route)
			}
		}
	})

	t.Run("coordinator", func(t *testing.T) {
		c := fleet.New(fleet.Config{PollInterval: 10 * time.Millisecond})
		hs := httptest.NewServer(c.Handler())
		defer hs.Close()
		ctx, cancel := context.WithCancel(context.Background())
		worker := fleet.NewWorker(fleet.WorkerConfig{Coordinator: hs.URL, Name: "w1"})
		stopped := make(chan error, 1)
		go func() { stopped <- worker.Run(ctx) }()
		defer func() {
			cancel()
			<-stopped
		}()
		sweepCtx, sweepCancel := context.WithTimeout(ctx, time.Minute)
		defer sweepCancel()
		if _, err := c.Submit(sweepCtx, fleet.SweepRequest{Data: dataDir, Model: modelPath, Strategy: "graph_degree",
			Options: fleet.SweepOptions{TopN: 40, MaxCandidates: 30, Seed: 7}}); err != nil {
			t.Fatal(err)
		}
		checkExposition(t, hs.URL, "kgfleet_workers", "kgfleet_units", "kgfleet_sweeps", "kgfleet_records_total")
	})
}

// request sends one request and returns the reply's body, whatever its
// status.
func request(t *testing.T, base, method, path, body string) string {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkExposition scrapes base's /metrics, checks its families, requires
// the named ones among them, and returns the text.
func checkExposition(t *testing.T, base string, families ...string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != wire.MetricsContentType {
		t.Errorf("Content-Type %q, want %q", ct, wire.MetricsContentType)
	}
	types := map[string]string{} // family → type, as declared
	var family string            // the family declared last
	var text strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		text.WriteString(line + "\n")
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ = strings.Cut(name, " ")
			if _, dup := types[name]; dup {
				t.Errorf("line %d: family %s declared again", n, name)
			}
			if !sc.Scan() {
				t.Fatalf("line %d: %s has no TYPE line", n, name)
			}
			n++
			text.WriteString(sc.Text() + "\n")
			typ, ok := strings.CutPrefix(sc.Text(), "# TYPE "+name+" ")
			if !ok {
				t.Errorf("line %d: %q does not follow HELP %s", n, sc.Text(), name)
			}
			types[name], family = typ, name
			continue
		}
		end := strings.IndexAny(line, "{ ")
		if end < 0 {
			t.Errorf("line %d: %q is not a sample", n, line)
			continue
		}
		name, value := line[:end], line[strings.LastIndex(line, " ")+1:]
		if types[family] == "histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				name = strings.TrimSuffix(name, suffix)
			}
		}
		if name != family {
			t.Errorf("line %d: sample %q follows family %q's declaration, not its own", n, line, family)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("line %d: value of %q: %v", n, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, f := range families {
		if _, ok := types[f]; !ok {
			t.Errorf("family %s not declared", f)
		}
	}
	return text.String()
}
