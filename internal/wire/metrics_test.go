package wire

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestRegistryText fixes the text of every kind of family: declaration
// order, samples sorted by label values, a labelled family with no samples
// written as its HELP and TYPE lines alone, label values quoted as %q quotes
// them, and bucket bounds and sums written with %g.
func TestRegistryText(t *testing.T) {
	var r Registry
	r.Counter("x_total", "Things counted.").Add(7)
	r.CounterVec("empty_total", "Nothing yet.", "route")
	odd := "a\"b\\c\té\x00"
	codes := r.CounterVec("codes_total", "By route and code.", "route", "code")
	codes.With("/b", "200").Inc()
	codes.With("/a", "404").Add(2)
	codes.With(odd, "200").Inc()
	codes.With("/a", "200").Inc()
	lat := r.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.25, 2.5}, "route")
	lat.With("/q").Observe(0.003)
	lat.With("/q").Observe(0.7)
	lat.With("/a")
	r.Histogram("plain", "Unlabelled.", []float64{1}).With().Observe(1)
	r.GaugeVec("level", "A gauge.").With().Add(-3)
	inFlight := r.GaugeVec("in_flight", "By route.", "route")
	inFlight.With("/q").Add(2)
	inFlight.With("/q").Add(-1)
	r.GaugeFunc("owned", "Read at scrape.", []string{"state", "flag"}, func(emit func(any, ...string)) {
		emit(3, "run", "true")
		emit(0.125, "done", "false")
		emit(1_000_000, "fail", "true")
		emit(2.5e6, "wait", "false")
	})
	want := `# HELP x_total Things counted.
# TYPE x_total counter
x_total 7
# HELP empty_total Nothing yet.
# TYPE empty_total counter
# HELP codes_total By route and code.
# TYPE codes_total counter
codes_total{route="/a",code="200"} 1
codes_total{route="/a",code="404"} 2
codes_total{route="/b",code="200"} 1
` + fmt.Sprintf("codes_total{route=%q,code=\"200\"} 1\n", odd) + `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{route="/a",le="0.001"} 0
lat_seconds_bucket{route="/a",le="0.25"} 0
lat_seconds_bucket{route="/a",le="2.5"} 0
lat_seconds_bucket{route="/a",le="+Inf"} 0
lat_seconds_sum{route="/a"} 0
lat_seconds_count{route="/a"} 0
lat_seconds_bucket{route="/q",le="0.001"} 0
lat_seconds_bucket{route="/q",le="0.25"} 1
lat_seconds_bucket{route="/q",le="2.5"} 2
lat_seconds_bucket{route="/q",le="+Inf"} 2
` + fmt.Sprintf("lat_seconds_sum{route=\"/q\"} %g\n", 0.003+0.7) + `lat_seconds_count{route="/q"} 2
# HELP plain Unlabelled.
# TYPE plain histogram
plain_bucket{le="1"} 1
plain_bucket{le="+Inf"} 1
plain_sum 1
plain_count 1
# HELP level A gauge.
# TYPE level gauge
level -3
# HELP in_flight By route.
# TYPE in_flight gauge
in_flight{route="/q"} 1
# HELP owned Read at scrape.
# TYPE owned gauge
owned{state="done",flag="false"} 0.125
owned{state="fail",flag="true"} 1000000
owned{state="run",flag="true"} 3
owned{state="wait",flag="false"} 2.5e+06
`
	var b bytes.Buffer
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", b.String(), want)
	}

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Body.String() != want || rec.Header().Get("Content-Type") != MetricsContentType {
		t.Errorf("ServeHTTP: %q (%s)", rec.Body.String(), rec.Header().Get("Content-Type"))
	}
}

// TestRegistryConcurrent increments a counter, a labelled counter and a
// histogram from eight goroutines while another scrapes, and requires the
// final scrape to show exact totals.
func TestRegistryConcurrent(t *testing.T) {
	const workers, each = 8, 2000
	var r Registry
	total := r.Counter("total", "All.")
	byWorker := r.CounterVec("by_parity", "By parity.", "parity")
	hist := r.Histogram("h", "Observed.", []float64{0.5}, "parity")
	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
				_, _ = r.WriteTo(new(bytes.Buffer))
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(parity string) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				total.Inc()
				byWorker.With(parity).Add(2)
				hist.With(parity).Observe(float64(i % 2))
			}
		}(fmt.Sprint(w % 2))
	}
	wg.Wait()
	close(done)
	<-scraped
	var b bytes.Buffer
	_, _ = r.WriteTo(&b)
	n := workers * each
	for _, line := range []string{
		fmt.Sprintf("total %d", n),
		fmt.Sprintf(`by_parity{parity="0"} %d`, n),
		fmt.Sprintf(`by_parity{parity="1"} %d`, n),
		fmt.Sprintf(`h_bucket{parity="1",le="0.5"} %d`, n/4),
		fmt.Sprintf(`h_bucket{parity="1",le="+Inf"} %d`, n/2),
		fmt.Sprintf(`h_sum{parity="1"} %d`, n/4),
		fmt.Sprintf(`h_count{parity="0"} %d`, n/2),
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("final scrape lacks %q:\n%s", line, b.String())
		}
	}
}

// TestRegistryDeclareTwice: a name is declared once, whatever its kind.
func TestRegistryDeclareTwice(t *testing.T) {
	var r Registry
	r.Counter("x", "One.")
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "x declared twice") {
			t.Errorf("recovered %v, want a panic naming x", p)
		}
	}()
	r.GaugeFunc("x", "Two.", nil, func(func(any, ...string)) {})
}
