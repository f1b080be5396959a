package wire

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricsContentType is that of the Prometheus text format (version 0.0.4)
// a Registry writes.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// Registry holds metric families in the order they were declared and writes
// them as Prometheus text. Each family is declared once, with its name, help
// text and label names; declaring a name twice panics. Counters, gauges and
// histograms hold their own values; a GaugeFunc family reads values another
// structure owns at each scrape. A family's samples are written sorted by
// their label values, and a labelled family with none yet writes only its
// HELP and TYPE lines. The zero value is ready to use.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

type family struct {
	name, typ, help string
	labels          []string
	newValue        func() any
	// With runs on every request's path; a sync.Map finds an existing
	// series without taking a lock.
	series  sync.Map                                 // label values joined by "\xff" → *series
	collect func(emit func(v any, values ...string)) // a GaugeFunc's
}

type series struct {
	values []string
	v      any // a *Counter, *Gauge or *Histogram, or a GaugeFunc's value
}

func (r *Registry) declare(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.families {
		if g.name == f.name {
			panic("wire: metric " + f.name + " declared twice")
		}
	}
	r.families = append(r.families, f)
	return f
}

// WriteTo writes every family, in declaration order, to w.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	families := r.families
	r.mu.Unlock()
	var b []byte
	for _, f := range families {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		var all []*series
		if f.collect != nil {
			f.collect(func(v any, values ...string) { all = append(all, &series{values, v}) })
		}
		f.series.Range(func(_, s any) bool {
			all = append(all, s.(*series))
			return true
		})
		slices.SortFunc(all, func(x, y *series) int { return slices.Compare(x.values, y.values) })
		for _, s := range all {
			pairs := make([]string, len(f.labels))
			for i, l := range f.labels {
				pairs[i] = fmt.Sprintf("%s=%q", l, s.values[i])
			}
			if h, ok := s.v.(*Histogram); ok {
				b = h.write(b, f.name, strings.Join(pairs, ","))
				continue
			}
			b = sample(b, f.name, strings.Join(pairs, ","), s.v)
		}
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ServeHTTP answers a scrape with the registry's text.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", MetricsContentType)
	_, _ = r.WriteTo(w) // as in WriteJSON
}

// sample appends one sample line; %v writes a float with %g, and a
// counter or gauge through its String method.
func sample(b []byte, name, labels string, v any) []byte {
	if labels == "" {
		return fmt.Appendf(b, "%s %v\n", name, v)
	}
	return fmt.Appendf(b, "%s{%s} %v\n", name, labels, v)
}

// Vec is a labelled family of T: one T per distinct tuple of label values,
// made on first use.
type Vec[T any] struct{ f *family }

// With returns the T of the given label values, one per label name.
func (v Vec[T]) With(values ...string) *T {
	key := strings.Join(values, "\xff")
	s, ok := v.f.series.Load(key)
	if !ok {
		if len(values) != len(v.f.labels) {
			panic(fmt.Sprintf("wire: %s: label values %q for labels %q", v.f.name, values, v.f.labels))
		}
		s, _ = v.f.series.LoadOrStore(key, &series{slices.Clone(values), v.f.newValue()})
	}
	return s.(*series).v.(*T)
}

// CounterVec declares a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) Vec[Counter] {
	return Vec[Counter]{r.declare(&family{name: name, typ: "counter", help: help, labels: labels,
		newValue: func() any { return new(Counter) }})}
}

// Counter declares an unlabelled counter, written from its declaration on.
func (r *Registry) Counter(name, help string) *Counter { return r.CounterVec(name, help).With() }

// GaugeVec declares a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) Vec[Gauge] {
	return Vec[Gauge]{r.declare(&family{name: name, typ: "gauge", help: help, labels: labels,
		newValue: func() any { return new(Gauge) }})}
}

// Histogram declares a histogram family over the given ascending bucket
// upper bounds, with the given label names.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) Vec[Histogram] {
	return Vec[Histogram]{r.declare(&family{name: name, typ: "histogram", help: help, labels: labels,
		newValue: func() any { return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)} }})}
}

// GaugeFunc declares a gauge family whose values another structure owns:
// collect runs at every scrape and emits each sample, an integer or a float
// (written as %d or %g) with one value per label name.
func (r *Registry) GaugeFunc(name, help string, labels []string, collect func(emit func(v any, values ...string))) {
	r.declare(&family{name: name, typ: "gauge", help: help, labels: labels, collect: collect})
}

// Counter is a monotonic count: Inc adds one, Add adds n, and Value and
// String read it.
type Counter struct{ n atomic.Uint64 }

func (c *Counter) Inc()           { c.n.Add(1) }
func (c *Counter) Add(n uint64)   { c.n.Add(n) }
func (c *Counter) Value() uint64  { return c.n.Load() }
func (c *Counter) String() string { return strconv.FormatUint(c.Value(), 10) }

// Gauge is a value that goes up and down: Add adds n, which may be
// negative, and Value and String read it. GaugeVec(name, help).With() is an
// unlabelled one.
type Gauge struct{ n atomic.Int64 }

func (g *Gauge) Add(n int64)    { g.n.Add(n) }
func (g *Gauge) Value() int64   { return g.n.Load() }
func (g *Gauge) String() string { return strconv.FormatInt(g.Value(), 10) }

// Histogram counts observations into fixed buckets: each bucket counts
// those at or below its upper bound, and a final +Inf bucket counts all.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // one per bound, then the +Inf bucket
	sum    float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	for i, bound := range h.bounds {
		if v <= bound {
			h.counts[i]++
		}
	}
	h.counts[len(h.bounds)]++
	h.sum += v
	h.mu.Unlock()
}

func (h *Histogram) write(b []byte, name, labels string) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	le := strings.TrimPrefix(labels+",", ",") // the pairs before le's, if any
	for i, bound := range h.bounds {
		b = sample(b, name+"_bucket", fmt.Sprintf(`%sle="%g"`, le, bound), h.counts[i])
	}
	count := h.counts[len(h.bounds)]
	b = sample(b, name+"_bucket", le+`le="+Inf"`, count)
	b = sample(b, name+"_sum", labels, h.sum)
	return sample(b, name+"_count", labels, count)
}
