package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/bench/ledger"
)

// clockProcessCPU is Linux's CLOCK_PROCESS_CPUTIME_ID: CPU time consumed by
// every thread of the process, from the scheduler's own accounting (unlike
// getrusage, which is tick-sampled). On a shared VM it excludes most of the
// time the hypervisor gave to someone else, so it is steadier than the wall
// clock; the wall clock is still what every latency and throughput reports.
const clockProcessCPU = 2

func processCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// stopwatch times one operation on both clocks.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: processCPU()} }

func (s stopwatch) stop() (wall, cpu time.Duration) {
	return time.Since(s.wall), processCPU() - s.cpu
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), "kB"), &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status: %v", sc.Err())
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// span is one traced interval: times are nanoseconds since the start of the
// measured phase, Parent is the ID of the span that caused it (-1 for a
// root) and Op groups the spans of one operation. Synth marks children whose
// boundaries were not observed but laid out from durations the program
// reported (core.Stats.PerRelation).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Synth  bool   `json:"synth,omitempty"`
}

// slot is one operation of a pass, in schedule order.
type slot struct {
	class     string
	wall, cpu time.Duration
}

// passRec is one pass over the workload's fixed operation schedule.
type passRec struct {
	traced bool
	// concurrent marks a pass whose slots overlapped in time (several
	// clients): its slots give latency samples but do not add up to the pass.
	concurrent bool
	slots      []slot
	wall, cpu  time.Duration
	work       float64
}

// recorder collects the measured phase: per-pass slot timings always, spans
// only on traced passes (kept in memory, written out when the run ends).
type recorder struct {
	t0     time.Time
	passes []*passRec
	cur    *passRec
	watch  stopwatch
	spans  []span
	nextOp int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) beginPass(traced, concurrent bool) {
	r.cur = &passRec{traced: traced, concurrent: concurrent}
	r.watch = startWatch()
}

// endPass closes the pass; work is the number of work units it completed
// (facts, trained examples, requests).
func (r *recorder) endPass(work float64) {
	r.cur.wall, r.cur.cpu = r.watch.stop()
	r.cur.work = work
	r.passes = append(r.passes, r.cur)
	r.cur = nil
}

func (r *recorder) tracing() bool { return r.cur != nil && r.cur.traced }

// addSlot records one finished operation of the current pass.
func (r *recorder) addSlot(class string, wall, cpu time.Duration) {
	r.cur.slots = append(r.cur.slots, slot{class: class, wall: wall, cpu: cpu})
}

// op times fn as one sequential operation of the pass and, on a traced
// pass, records its span; fn receives the span ID to hang children on (-1
// when not tracing).
func (r *recorder) op(class, name string, fn func(parent int)) time.Duration {
	parent := -1
	opID := r.nextOp
	r.nextOp++
	if r.tracing() {
		parent = len(r.spans)
		r.spans = append(r.spans, span{ID: parent, Parent: -1, Op: opID, Name: name, Start: int64(time.Since(r.t0))})
	}
	w := startWatch()
	fn(parent)
	wall, cpu := w.stop()
	if parent >= 0 {
		r.spans[parent].End = r.spans[parent].Start + int64(wall)
	}
	r.addSlot(class, wall, cpu)
	return wall
}

// child adds a synthesised span under parent covering [offset, offset+d)
// relative to the parent's start; it returns the offset just past it so
// siblings can be laid out back to back. A no-op when parent is -1.
func (r *recorder) child(parent int, name string, offset, d time.Duration) time.Duration {
	if parent >= 0 {
		p := r.spans[parent]
		r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: p.Op, Name: name,
			Start: p.Start + int64(offset), End: p.Start + int64(offset+d), Synth: true})
	}
	return offset + d
}

// addSpan records a root span observed by someone else (a client goroutine
// hands its requests over once the pass has joined).
func (r *recorder) addSpan(name string, start time.Time, d time.Duration) {
	id := len(r.spans)
	off := int64(start.Sub(r.t0))
	r.spans = append(r.spans, span{ID: id, Parent: -1, Op: r.nextOp, Name: name, Start: off, End: off + int64(d)})
	r.nextOp++
}

// samples returns the wall time, in milliseconds, of every slot of the class
// over the selected passes.
func (r *recorder) samples(class string, keep func(*passRec) bool) []float64 {
	var out []float64
	for _, p := range r.passes {
		if keep != nil && !keep(p) {
			continue
		}
		for _, s := range p.slots {
			if s.class == class {
				out = append(out, millis(s.wall))
			}
		}
	}
	return out
}

// selected returns the passes keep accepts (all of them for a nil keep).
func (r *recorder) selected(keep func(*passRec) bool) []*passRec {
	var ps []*passRec
	for _, p := range r.passes {
		if keep == nil || keep(p) {
			ps = append(ps, p)
		}
	}
	return ps
}

// slotBest returns, for a sequential schedule, the fastest time in seconds
// (wall, or process CPU) of every slot across the selected passes; nil when
// the passes' slots do not line up or overlapped in time.
func (r *recorder) slotBest(keep func(*passRec) bool, cpu bool) []float64 {
	ps := r.selected(keep)
	if len(ps) == 0 || len(ps[0].slots) == 0 {
		return nil
	}
	n := len(ps[0].slots)
	for _, p := range ps {
		if len(p.slots) != n || p.concurrent {
			return nil
		}
	}
	out := make([]float64, n)
	for k := range out {
		for i, p := range ps {
			v := seconds(p.slots[k].wall)
			if cpu {
				v = seconds(p.slots[k].cpu)
			}
			if i == 0 || v < out[k] {
				out[k] = v
			}
		}
	}
	return out
}

// typicalPass estimates the time of one pass from several. Every pass runs
// the same schedule, so slot k is the same operation in each, and the
// estimate is the sum over slots of the slot's fastest repetition. On a
// shared machine noise only ever adds time (stolen CPU, a busy sibling
// thread, evicted caches), in episodes longer than an operation, so an
// operation's fastest repetition is the steadiest estimate of what it costs,
// and summing per slot lets every operation pick its own quietest moment.
// Concurrent passes fall back to the fastest whole pass.
func (r *recorder) typicalPass(keep func(*passRec) bool, cpu bool) float64 {
	if best := r.slotBest(keep, cpu); best != nil {
		var sum float64
		for _, v := range best {
			sum += v
		}
		return sum
	}
	var fastest float64
	for i, p := range r.selected(keep) {
		v := seconds(p.wall)
		if cpu {
			v = seconds(p.cpu)
		}
		if i == 0 || v < fastest {
			fastest = v
		}
	}
	return fastest
}

// opP50 is the median cost of the class's operations in milliseconds. On a
// sequential schedule each operation (slot) first takes its fastest
// repetition, then the median runs across the schedule's operations; with
// concurrent clients every request is its own sample.
func (r *recorder) opP50(class string, keep func(*passRec) bool) (p50 float64, n int) {
	best := r.slotBest(keep, false)
	if best == nil {
		xs := r.samples(class, keep)
		return ledger.Median(xs), len(xs)
	}
	var xs []float64
	for k, s := range r.passes[0].slots {
		if s.class == class {
			xs = append(xs, best[k]*1000)
		}
	}
	return ledger.Median(xs), len(xs)
}

func untracedPass(p *passRec) bool { return !p.traced }
func tracedPass(p *passRec) bool   { return p.traced }

// timeIt runs fn reps times and returns the median wall time of one call.
func timeIt(reps int, fn func()) time.Duration {
	xs := make([]float64, reps)
	for i := range xs {
		t := time.Now()
		fn()
		xs[i] = float64(time.Since(t))
	}
	return time.Duration(ledger.Median(xs))
}
