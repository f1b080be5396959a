package train

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/prof"
	"repro/internal/vecmath"
)

// Config parameterizes a training run.
type Config struct {
	// Epochs is the maximum number of passes over the training triples.
	Epochs int
	// BatchSize is the number of positive triples per optimizer step.
	BatchSize int
	// NegSamples is the number of corruptions per positive.
	NegSamples int
	// Loss defaults to DefaultLossFor(model.Name()).
	Loss Loss
	// Optimizer defaults to Adam with LearningRate.
	Optimizer Optimizer
	// LearningRate is used when Optimizer is nil; zero means 0.05.
	LearningRate float32
	// L2 is the weight-decay coefficient applied (sparsely) to every
	// parameter row a batch touches.
	L2 float32
	// Workers is the parallelism of gradients and optimizer steps; below 1
	// means GOMAXPROCS. Training output is bit-identical for any value: the
	// unit of work is the fixed-size gradient chunk, not the worker shard,
	// so the float accumulation order never depends on Workers.
	Workers int
	// Seed drives shuffling and negative sampling.
	Seed int64

	// Validate, when non-nil, is called every EvalEvery epochs with the
	// current model; it returns a metric where higher is better (e.g.
	// validation MRR). Training stops early when the metric has not
	// improved for Patience consecutive evaluations (Patience 0 disables
	// early stopping).
	Validate  func(m kge.Model) float64
	EvalEvery int
	Patience  int

	// Progress, when non-nil, receives one line per epoch.
	Progress func(format string, args ...any)
}

func (c *Config) setDefaults(model kge.Model) {
	if c.Epochs == 0 {
		c.Epochs = 50
	}
	if c.BatchSize == 0 {
		c.BatchSize = 128
	}
	if c.NegSamples == 0 {
		c.NegSamples = 4
	}
	if c.Loss == nil {
		c.Loss = DefaultLossFor(model.Name())
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Optimizer == nil {
		c.Optimizer = NewAdam(c.LearningRate)
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 5
	}
}

// EpochStats records one epoch of training for the returned history.
type EpochStats struct {
	Epoch      int
	Loss       float64 // mean loss per positive triple
	Duration   time.Duration
	Validation float64 // metric from Config.Validate; NaN-free: 0 when unset
	// Examples is the number of training examples this epoch processed:
	// positive triples for the sampled objective, (s, r) contexts for
	// KvsAll. Examples/Duration is the epoch throughput.
	Examples int
}

// Throughput returns the epoch's examples per second (0 for a zero duration).
func (s EpochStats) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Examples) / s.Duration.Seconds()
}

// History is the per-epoch record of a training run.
type History struct {
	Epochs []EpochStats
	// Best is the best validation metric seen (0 when Validate is unset).
	Best float64
	// Stopped reports whether early stopping triggered.
	Stopped bool
}

// prepare is the shared front of Run and RunKvsAll. It rejects what neither
// objective can train — a negative count (setDefaults only replaces zeros,
// so one would reach a slice bound or a make), an empty graph — before the
// model is touched, fills cfg's defaults, and returns the run's optimizer
// step.
func prepare(model kge.Model, ds *kg.Dataset, cfg *Config) (*stepper, error) {
	if cfg.Epochs < 0 || cfg.BatchSize < 0 || cfg.NegSamples < 0 || cfg.EvalEvery < 0 || cfg.Patience < 0 {
		return nil, fmt.Errorf("train: negative count in config (Epochs %d, BatchSize %d, NegSamples %d, EvalEvery %d, Patience %d); zero selects the default",
			cfg.Epochs, cfg.BatchSize, cfg.NegSamples, cfg.EvalEvery, cfg.Patience)
	}
	cfg.setDefaults(model)
	if ds.Train.Len() == 0 {
		return nil, fmt.Errorf("train: empty training graph")
	}
	return newStepper(model, *cfg), nil
}

// Run trains model on ds.Train per cfg with negative sampling. It returns
// the training history. The model is mutated in place; with early stopping
// the parameters from the best validation epoch are restored before
// returning.
func Run(ctx context.Context, model kge.Model, ds *kg.Dataset, cfg Config) (History, error) {
	st, err := prepare(model, ds, &cfg)
	if err != nil {
		return History{}, err
	}
	if model.NumEntities() < 2 {
		return History{}, fmt.Errorf("train: negative sampling needs at least 2 entities to corrupt a triple, the model has %d", model.NumEntities())
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	triples := ds.Train.Triples()

	sampler := &NegativeSampler{NumEntities: model.NumEntities()}

	return runEpochs(ctx, model, cfg, rng, len(triples), "triples",
		func(i, j int) { triples[i], triples[j] = triples[j], triples[i] },
		func(lo, hi int) float64 {
			return runBatch(st, triples[lo:hi], sampler, rng.Int63())
		})
}

// runEpochs is the epoch loop both objectives share: shuffle the n examples
// (swap exchanges two of them), cut them into cfg.BatchSize batches and hand
// each to step — one optimizer step over examples [lo, hi), returning their
// summed loss — then validate, stop early, report progress, and restore the
// best parameters at the end. unit names the examples in the progress line.
// rng is consumed once per epoch by the shuffle; anything step draws from it
// (negative sampling's per-batch seed) interleaves in batch order.
func runEpochs(ctx context.Context, model kge.Model, cfg Config, rng *rand.Rand, n int, unit string,
	swap func(i, j int), step func(lo, hi int) float64) (History, error) {

	var hist History
	var best float64
	var bestParams [][]float32
	sinceBest := 0

	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return hist, err
		}
		start := time.Now()
		rng.Shuffle(n, swap)

		var epochLoss float64
		for lo := 0; lo < n; lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > n {
				hi = n
			}
			epochLoss += step(lo, hi)
		}
		epochLoss /= float64(n)

		stats := EpochStats{
			Epoch: epoch, Loss: epochLoss, Duration: time.Since(start),
			Examples: n,
		}

		if cfg.Validate != nil && epoch%cfg.EvalEvery == 0 {
			metric := cfg.Validate(model)
			stats.Validation = metric
			if metric > best {
				best = metric
				sinceBest = 0
				bestParams = snapshotParams(model, bestParams)
			} else {
				sinceBest++
			}
			if cfg.Patience > 0 && sinceBest >= cfg.Patience {
				hist.Epochs = append(hist.Epochs, stats)
				hist.Stopped = true
				break
			}
		}
		hist.Epochs = append(hist.Epochs, stats)
		if cfg.Progress != nil {
			cfg.Progress("epoch %3d  loss %.5f  valid %.4f  (%s, %.0f %s/s)",
				epoch, stats.Loss, stats.Validation,
				stats.Duration.Round(time.Millisecond), stats.Throughput(), unit)
		}
	}
	hist.Best = best
	if bestParams != nil {
		restoreParams(model, bestParams)
	}
	return hist, nil
}

// gradChunkSize is the fixed number of examples per gradient chunk. The
// chunk, not the worker shard, is the unit of scheduling: every batch is
// split into ⌈len/gradChunkSize⌉ chunks regardless of Config.Workers, each
// chunk accumulates into its own GradBuffer with an RNG stream derived from
// (batchSeed, chunkIndex), and after the barrier every row's gradient sums
// the chunks in ascending chunk order. Float accumulation order is therefore
// a function of the batch alone, which is what makes training bit-identical
// for any worker count.
const gradChunkSize = 16

// splitmix64 is a tiny deterministic rand.Source64 used for per-chunk
// negative-sampling streams. Chunks are small and numerous, so stream setup
// must be O(1): seeding math/rand's default source walks a ~12k-multiply
// warmup, which would dominate a 16-example chunk's gradient work.
type splitmix64 uint64

func (s *splitmix64) Uint64() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix64) Seed(seed int64) { *s = splitmix64(seed) }

// seedChunk points s at one chunk's stream, a pure function of (batchSeed,
// chunk) decorrelated from its neighbours by the golden-ratio increment.
func (s *splitmix64) seedChunk(batchSeed int64, chunk int) {
	*s = splitmix64(uint64(batchSeed) + uint64(chunk+1)*0x9E3779B97F4A7C15)
}

// parallel runs fn(0), …, fn(workers−1) on as many goroutines, fn(0) on the
// caller's, and returns once all have.
func parallel(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() { defer wg.Done(); fn(w) }()
	}
	fn(0)
	wg.Wait()
}

// stepper is one training run's optimizer step, reused by all its batches:
// a gradient buffer per chunk slot and group scratch per worker.
type stepper struct {
	model    kge.Model
	cfg      Config
	bufs     []*kge.GradBuffer
	groups   [][2]kge.GroupScratch // per worker, one per candidate side; [0] also merges
	upstream []*vecmath.Matrix     // KvsAll's scores, then upstream rows, per chunk slot
}

func newStepper(model kge.Model, cfg Config) *stepper {
	return &stepper{model: model, cfg: cfg, groups: make([][2]kge.GroupScratch, cfg.Workers)}
}

// step is the tail every objective's batch shares. Up to cfg.Workers
// goroutines pull the n ≥ 1 examples' chunks from a counter, each chunk into
// its own buffer; newWorker(w) makes goroutine w's chunk function, and phase
// labels its profile samples. Merge unions the touched rows into the first
// buffer, serially; then each of cfg.Workers goroutines owns a share of the
// rows, summing each row's chunks in chunk order (kge.RowMerger), adding L2
// weight decay and applying the optimizer — a serial pass's arithmetic for
// any worker count. PostBatch follows. step returns the summed loss.
func (st *stepper) step(phase string, n int, newWorker func(w int) func(chunk, lo, hi int, gb *kge.GradBuffer) float64) float64 {
	chunks := (n + gradChunkSize - 1) / gradChunkSize
	first := st.bufs == nil // the run's first step, whose PostBatch sees every row
	for len(st.bufs) < chunks {
		st.bufs = append(st.bufs, kge.NewGradBuffer(st.model.Params()))
	}
	bufs, losses := st.bufs[:chunks], make([]float64, chunks)
	var next atomic.Int64
	parallel(min(st.cfg.Workers, chunks), func(w int) {
		prof.Do(phase, func() {
			do := newWorker(w)
			for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
				bufs[c].Reset()
				losses[c] = do(c, c*gradChunkSize, min((c+1)*gradChunkSize, n), bufs[c])
			}
		})
	})

	merged, others := bufs[0], bufs[1:]
	mergers := merged.Merge(others)
	params := st.model.Params().List()
	updates := make([]func(row int, grad []float32), len(params))
	for i, p := range params {
		updates[i] = st.cfg.Optimizer.Rows(p)
	}
	workers := st.cfg.Workers
	parallel(workers, func(w int) {
		for i, p := range params {
			rows := merged.Rows(p)
			for _, row := range rows[len(rows)*w/workers : len(rows)*(w+1)/workers] {
				grad := mergers[i].Row(int(row), &st.groups[w][0])
				if st.cfg.L2 > 0 {
					vecmath.Axpy(st.cfg.L2, p.M.Row(int(row)), grad)
				}
				updates[i](int(row), grad)
			}
		}
	})
	if first {
		merged = nil
	}
	st.model.PostBatch(merged)
	loss := losses[0]
	for _, l := range losses[1:] {
		loss += l
	}
	return loss
}

// runBatch takes one negative-sampling optimizer step over batch and returns
// the summed loss. Each positive's candidates are gathered into at most two
// groups — the (s, r) context against [positive object | object-side
// corruptions] and the (r, o) context against the subject-side corruptions —
// and each group is scored and backpropagated with one grouped call. RNG
// consumption is one CorruptN per positive in batch order, from the chunk's
// own stream.
func runBatch(st *stepper, batch []kg.Triple, sampler *NegativeSampler, seed int64) float64 {
	model, cfg := st.model, st.cfg
	invBatch := 1 / float32(len(batch))
	return st.step("negsample", len(batch), func(w int) func(chunk, lo, hi int, gb *kge.GradBuffer) float64 {
		negs := make([]kg.Triple, 0, cfg.NegSamples)
		negScores := make([]float32, cfg.NegSamples)
		gradNegs := make([]float32, cfg.NegSamples)
		// Group scratch: objs[0] is always the positive object; the slot
		// arrays map draw order i -> position in its side's group.
		objs := make([]kg.EntityID, 0, 1+cfg.NegSamples)
		subjs := make([]kg.EntityID, 0, cfg.NegSamples)
		objSlot := make([]int, cfg.NegSamples)
		subjSlot := make([]int, cfg.NegSamples)
		objScores := make([]float32, 1+cfg.NegSamples)
		subjScores := make([]float32, cfg.NegSamples)
		objUp := make([]float32, 1+cfg.NegSamples)
		subjUp := make([]float32, cfg.NegSamples)
		// One scratch per side: each carries its group from scoring to
		// backprop, and both groups are alive in between.
		objScr, subjScr := &st.groups[w][0], &st.groups[w][1]
		var gradPos float32 // escapes through Loss.Eval: once per worker, not per positive
		var src splitmix64
		rng := rand.New(&src)
		return func(chunk, lo, hi int, gb *kge.GradBuffer) float64 {
			src.seedChunk(seed, chunk)
			var loss float64
			for _, pos := range batch[lo:hi] {
				negs = sampler.CorruptN(negs, pos, cfg.NegSamples, rng)
				objs = append(objs[:0], pos.O)
				subjs = subjs[:0]
				for i, n := range negs {
					// Corrupt guarantees the corrupted entity differs from
					// the original, so n.O != pos.O iff the object side
					// was corrupted — unambiguous even for self-loops.
					if n.O != pos.O {
						objSlot[i] = len(objs)
						objs = append(objs, n.O)
					} else {
						objSlot[i] = -1
						subjSlot[i] = len(subjs)
						subjs = append(subjs, n.S)
					}
				}
				model.ScoreObjectsGroup(pos.S, pos.R, objs, objScores[:len(objs)], objScr)
				if len(subjs) > 0 {
					model.ScoreSubjectsGroup(pos.R, pos.O, subjs, subjScores[:len(subjs)], subjScr)
				}
				for i := range negs {
					if s := objSlot[i]; s >= 0 {
						negScores[i] = objScores[s]
					} else {
						negScores[i] = subjScores[subjSlot[i]]
					}
				}
				loss += float64(cfg.Loss.Eval(objScores[0], negScores[:len(negs)], &gradPos, gradNegs[:len(negs)]))
				objUp[0] = gradPos * invBatch
				for i := range negs {
					if s := objSlot[i]; s >= 0 {
						objUp[s] = gradNegs[i] * invBatch
					} else {
						subjUp[subjSlot[i]] = gradNegs[i] * invBatch
					}
				}
				model.AccumulateGradObjectsGroup(pos.S, pos.R, objs, objUp[:len(objs)], gb, objScr)
				if len(subjs) > 0 {
					model.AccumulateGradSubjectsGroup(pos.R, pos.O, subjs, subjUp[:len(subjs)], gb, subjScr)
				}
			}
			return loss
		}
	})
}

// snapshotParams copies the model's tables, in registration order, into
// prev's buffers, so repeated best-epoch snapshots stop re-allocating the
// full parameter set (which for a large model dwarfs the epoch's gradient
// churn).
func snapshotParams(model kge.Model, prev [][]float32) [][]float32 {
	for i, p := range model.Params().List() {
		if i == len(prev) {
			prev = append(prev, make([]float32, len(p.M.Data)))
		}
		copy(prev[i], p.M.Data)
	}
	return prev
}

func restoreParams(model kge.Model, snap [][]float32) {
	for i, p := range model.Params().List() {
		copy(p.M.Data, snap[i])
	}
}
