// Package engine is the unified concurrent evaluation service of the
// reproduction: every corner/condition evaluation — the paper's 48-corner
// design-space sweep, the PVT robustness sweeps, and the figure/table
// regenerations that revisit the same configurations — is submitted here
// instead of rolling its own concurrency.
//
// The engine separates *evaluation* from *exploration* (the compiler-style
// split of OpenACM): exploration layers (internal/dse, internal/exp) decide
// which (config, condition) jobs to run; the engine decides how — a bounded
// worker pool with deterministic result ordering, a tiered content-addressed
// result cache keyed on (backend, config, condition), and a pluggable
// Backend so the same sweep can run against the fast behavioral models or
// the golden transient solver (or both, for comparison mode).
//
// The cache has up to three tiers: the in-memory map (always on), an
// optional persistent Store (internal/store — survives the process, shared
// across runs and CI jobs), and the backend itself. Lookups fall through
// memory → store → backend; results computed by the backend are written
// back to the store, in groups on the batched submission path.
//
// # Two-level concurrency
//
// The engine's worker bound is a total budget spent on two levels. The
// job level fans distinct (config, condition) jobs out across a bounded
// pool; the intra-job level lets a backend that implements IntraBackend
// parallelize inside one evaluation (the golden backend fans each corner's
// ~500 transients — trim calibration, the 16×16 input space, and the
// Monte-Carlo sigma samples — across its granted share). For a batch of n
// runnable jobs the engine grants each job total/min(total, n) intra
// workers, so job-level × intra-job concurrency never oversubscribes the
// budget: a 48-corner sweep spends everything on job fan-out, while a
// single golden corner spends everything inside the corner.
//
// Determinism is preserved at both levels: results come back in job order
// regardless of worker counts, and intra-job workers fill fixed
// per-transient slots that reduce serially in input order — Metrics are
// byte-identical at any budget, which is what makes the content-addressed
// cache (and the persistent store) sound.
//
// # Condition plane
//
// The operating condition is a first-class evaluation dimension, not a
// per-call scalar: a ConditionSet (named, ordered, duplicate-free, with a
// canonical "TT@1V@27C,SS@0.9V@60C" spec form) spans the cross-condition
// axis, and EvaluateMatrix(configs × conditions) submits the whole plane as
// one batch, returning a Matrix indexed [config][condition]. The set never
// changes keying — each (config, condition) cell remains an independent
// cache/store key — so every cache tier serves partial overlaps between
// matrices, sweeps and single evaluations unchanged. The exploration
// layers' robust analyses (dse.RobustSweep, the search's robust mode) are
// reductions over this plane.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"optima/internal/device"
	"optima/internal/mult"
	"optima/internal/obs"
	"optima/internal/sched"
)

// MetricsSchema versions the semantic content of Metrics. It participates
// in the persistent store's fingerprint, so bumping it invalidates every
// previously persisted result. Bump it whenever the meaning or computation
// of any Metrics field changes.
//
// Schema 2: the golden backend's Monte-Carlo σ estimate switched from one
// sequential RNG stream across samples to one deterministic stream per
// sample (required for schedule-independent intra-job parallelism), which
// changes golden SigmaMax values.
const MetricsSchema = 2

// Job is one unit of evaluation work: score a multiplier configuration at
// an operating condition over the full input space.
type Job struct {
	Config mult.Config
	Cond   device.PVT
}

// Key content-addresses one evaluation result: the backend identity plus
// the job. Config and PVT are flat value structs, so Key is comparable and
// two jobs collide exactly when they would produce the same result.
type Key struct {
	Backend string
	Job
}

// CacheEntry pairs a key with its metrics — the unit a Store persists.
type CacheEntry struct {
	Key Key
	Met Metrics
}

// Store is the optional persistent tier of the result cache. Implementations
// must be safe for concurrent use. Get misses are cheap (in-memory index);
// PutBatch appends a group of freshly computed results durably. The
// canonical implementation is internal/store; the interface stays here so a
// future key-range-sharded or remote store drops in without touching the
// exploration layers.
type Store interface {
	Get(Key) (Metrics, bool)
	PutBatch([]CacheEntry) error
}

// Stats reports the engine's cache accounting. The JSON tags make a
// snapshot (or a Sub delta) directly reportable over an API — per-job
// evaluated / cache-hit / store-hit counts without string-parsing String.
type Stats struct {
	// Hits counts evaluations served from the in-memory tier (including
	// waits on an in-flight computation of the same key).
	Hits uint64 `json:"cache_hits"`
	// DiskHits counts evaluations served from the persistent store tier.
	DiskHits uint64 `json:"store_hits"`
	// Misses counts evaluations that ran the backend.
	Misses uint64 `json:"evaluated"`
	// StoreErrors counts failed persistence attempts (the result is still
	// returned and cached in memory; the store write is best-effort).
	StoreErrors uint64 `json:"store_errors"`
	// Entries is the number of distinct results held in memory.
	Entries int `json:"entries"`
}

// String renders the accounting for log lines. The store clauses appear
// independently: store errors without disk hits report only the errors, not
// a spurious "0 store hits".
func (s Stats) String() string {
	out := fmt.Sprintf("%d evaluated, %d cache hits, %d entries", s.Misses, s.Hits, s.Entries)
	if s.DiskHits > 0 {
		out += fmt.Sprintf(", %d store hits", s.DiskHits)
	}
	if s.StoreErrors > 0 {
		out += fmt.Sprintf(", %d store errors", s.StoreErrors)
	}
	return out
}

// Sub returns the counter deltas s − prev (Entries carries over from s).
// Exploration layers use it to attribute engine activity to one phase — the
// adaptive search records a Stats delta per rung, which is how its Trace
// separates fresh backend evaluations from cache and store hits.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:        s.Hits - prev.Hits,
		DiskHits:    s.DiskHits - prev.DiskHits,
		Misses:      s.Misses - prev.Misses,
		StoreErrors: s.StoreErrors - prev.StoreErrors,
		Entries:     s.Entries,
	}
}

// entry is one cache slot. done is closed when met/err are valid, so
// concurrent submitters of the same key wait instead of recomputing.
type entry struct {
	done chan struct{}
	met  Metrics
	err  error
}

// engineMetrics holds the engine's instrument handles. The zero value —
// no recorder attached — is fully inert: every handle is nil, and every
// obs method no-ops on a nil receiver, so the instrumented paths never
// branch on "is telemetry on".
type engineMetrics struct {
	hitsMem   *obs.Counter
	hitsStore *obs.Counter
	evals     *obs.Counter
	storeErrs *obs.Counter
	evalDur   *obs.Histogram
	queueWait *obs.Histogram
	busy      *obs.Gauge
}

func newEngineMetrics(rec *obs.Recorder, backend string) engineMetrics {
	if rec == nil {
		return engineMetrics{}
	}
	reg := rec.Metrics()
	return engineMetrics{
		hitsMem:   reg.Counter("optima_cache_hits_total", "evaluations served from a cache tier", "tier", "memory"),
		hitsStore: reg.Counter("optima_cache_hits_total", "evaluations served from a cache tier", "tier", "store"),
		evals:     reg.Counter("optima_evals_total", "backend evaluations run", "backend", backend),
		storeErrs: reg.Counter("optima_store_errors_total", "failed best-effort store writes"),
		evalDur:   reg.Histogram("optima_eval_duration_seconds", "backend evaluation wall time", nil, "backend", backend),
		queueWait: reg.Histogram("optima_queue_wait_seconds", "delay between batch submission and a cell starting on the backend", nil),
		busy:      reg.Gauge("optima_workers_busy", "evaluations currently running on the backend"),
	}
}

// Engine is a memoizing concurrent evaluation service over one backend.
// All methods are safe for concurrent use.
type Engine struct {
	backend Backend
	workers int
	store   Store // nil = memory-only cache

	mu        sync.Mutex
	cache     map[Key]*entry
	hits      uint64
	diskHits  uint64
	misses    uint64
	storeErrs uint64
	rec       *obs.Recorder
	em        engineMetrics
}

// New returns an engine over the given backend. workers bounds the worker
// pool of EvaluateAll; workers <= 0 uses GOMAXPROCS.
func New(backend Backend, workers int) *Engine {
	return &Engine{backend: backend, workers: workers, cache: map[Key]*entry{}}
}

// WithStore attaches a persistent store tier and returns the engine (for
// chaining). Call before the first evaluation; results computed earlier are
// not back-filled.
func (e *Engine) WithStore(s Store) *Engine {
	e.mu.Lock()
	e.store = s
	e.mu.Unlock()
	return e
}

// WithRecorder attaches a telemetry recorder and returns the engine (for
// chaining, like WithStore): spans for every backend evaluation and batch,
// cache-tier / eval-duration / queue-wait metrics into the recorder's
// registry. Timing data never flows into results — Metrics (and therefore
// everything cached or persisted) are byte-identical with or without a
// recorder, at any worker count. A per-submission BatchOptions.Recorder
// overrides this one.
func (e *Engine) WithRecorder(rec *obs.Recorder) *Engine {
	e.mu.Lock()
	e.rec = rec
	e.em = newEngineMetrics(rec, e.backend.Name())
	e.mu.Unlock()
	if g, ok := e.backend.(*Golden); ok {
		g.setRecorder(rec)
	}
	return e
}

// obsFor resolves one submission's telemetry: an explicit per-batch
// recorder wins over the engine's own; instrument handles are rebuilt only
// for a foreign recorder (registration is idempotent, so handles resolve
// to the same series either way).
func (e *Engine) obsFor(rec *obs.Recorder) (*obs.Recorder, engineMetrics) {
	e.mu.Lock()
	own, em := e.rec, e.em
	e.mu.Unlock()
	if rec == nil || rec == own {
		return own, em
	}
	return rec, newEngineMetrics(rec, e.backend.Name())
}

// Backend returns the engine's backend.
func (e *Engine) Backend() Backend { return e.backend }

// Workers returns the engine's total worker budget: the bound on job-level
// × intra-job concurrency across one submission.
func (e *Engine) Workers() int {
	if e.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.workers
}

// splitBudget divides the total worker budget across n runnable jobs:
// up to n jobs run concurrently, each granted intra workers of internal
// parallelism (for backends that implement IntraBackend), with the first
// extra jobs granted one more so a budget that doesn't divide evenly is
// not stranded. The sum of grants over any jobWorkers concurrent jobs
// never exceeds the budget (when n <= total every job may be in flight
// and the grants sum to exactly total; otherwise intra is 1). A single
// job gets the whole budget — the case that makes a lone golden corner
// ~Nx faster.
func (e *Engine) splitBudget(n int) (jobWorkers, intra, extra int) {
	total := e.Workers()
	jobWorkers = total
	if jobWorkers > n {
		jobWorkers = n
	}
	if jobWorkers < 1 {
		jobWorkers = 1
	}
	intra = total / jobWorkers
	if intra < 1 {
		intra = 1
	}
	if n <= total {
		extra = total % jobWorkers
	}
	return jobWorkers, intra, extra
}

// evalBackend runs one job on the backend, granting the intra-job budget
// when the backend can use it. With a recorder, the golden backend takes
// its observed path so the intra-worker fan-out (trim transients,
// input-space and Monte-Carlo phases) shows up under the eval's span.
func (e *Engine) evalBackend(key Key, intra int, rec *obs.Recorder, parent obs.SpanID) (Metrics, error) {
	if g, ok := e.backend.(*Golden); ok && rec != nil {
		return g.evaluateObserved(key.Config, key.Cond, intra, rec, parent)
	}
	if ib, ok := e.backend.(IntraBackend); ok && intra != 1 {
		return ib.EvaluateBudget(key.Config, key.Cond, intra)
	}
	return e.backend.Evaluate(key.Config, key.Cond)
}

// runClaimed resolves a claimed cache entry against the backend. The done
// channel closes on every path: a panicking backend is recovered into the
// entry's error, so concurrent submitters of the key never block forever
// on a dead claim. The eval span and its metrics resolve in the same
// deferred step — panics are timed and counted like any other evaluation.
func (e *Engine) runClaimed(ent *entry, key Key, intra int, rec *obs.Recorder, parent obs.SpanID, em engineMetrics) {
	var arg string
	if rec != nil {
		arg = fmt.Sprintf("%v @ %v", key.Config, key.Cond)
	}
	span := rec.StartSpan(parent, obs.CatEval, key.Backend, arg)
	em.busy.Add(1)
	defer func() {
		if r := recover(); r != nil {
			ent.err = fmt.Errorf("engine: %s backend panicked on corner %v at %v: %v", key.Backend, key.Config, key.Cond, r)
		}
		em.busy.Add(-1)
		em.evals.Inc()
		em.evalDur.Observe(span.End().Seconds())
		close(ent.done)
	}()
	ent.met, ent.err = e.evalBackend(key, intra, rec, span.ID())
}

// Stats returns a snapshot of the cache accounting.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Hits: e.hits, DiskHits: e.diskHits, Misses: e.misses,
		StoreErrors: e.storeErrs, Entries: len(e.cache),
	}
}

// Evaluate scores one job, serving repeats from the memory tier, then the
// persistent store, then the backend. Concurrent submissions of the same
// key share a single lookup/evaluation. Errors are cached in memory (not
// persisted): backends are deterministic, so a failing corner fails the
// same way every time within a process.
//
// Each Evaluate call is its own submission and is granted the full worker
// budget for intra-job parallelism — callers fanning distinct jobs out
// across their own goroutines would multiply that grant and oversubscribe
// the budget; submit such groups through EvaluateBatch, which negotiates
// the job-level/intra-job split.
func (e *Engine) Evaluate(cfg mult.Config, cond device.PVT) (Metrics, error) {
	key := Key{Backend: e.backend.Name(), Job: Job{Config: cfg, Cond: cond}}
	e.mu.Lock()
	if ent, ok := e.cache[key]; ok {
		e.hits++
		em := e.em
		e.mu.Unlock()
		em.hitsMem.Inc()
		<-ent.done
		return ent.met, ent.err
	}
	ent := &entry{done: make(chan struct{})}
	e.cache[key] = ent
	store := e.store
	rec, em := e.rec, e.em
	e.mu.Unlock()

	if store != nil {
		if e.storeResolve(store, key, ent) {
			if ent.err == nil {
				e.mu.Lock()
				e.diskHits++
				e.mu.Unlock()
				em.hitsStore.Inc()
			}
			return ent.met, ent.err
		}
	}

	e.mu.Lock()
	e.misses++
	e.mu.Unlock()
	// A single submission is the whole fan-out, so it gets the full budget.
	e.runClaimed(ent, key, e.Workers(), rec, 0, em)
	if store != nil && ent.err == nil {
		e.persist([]CacheEntry{{Key: key, Met: ent.met}}, em)
	}
	return ent.met, ent.err
}

// storeResolve consults the persistent tier for a claimed key and, on a
// hit, resolves the entry with the stored metrics. It reports whether the
// entry was resolved — including the case where the Store implementation
// panicked, which resolves the claim with an error instead of stranding it:
// a Store is arbitrary code, and a panic between taking a claim and closing
// its done channel would leave every concurrent waiter blocked forever (the
// PR 3 stuck-waiter class, now machine-checked by optimalint/claimsafety).
func (e *Engine) storeResolve(store Store, key Key, ent *entry) (resolved bool) {
	defer func() {
		if r := recover(); r != nil {
			ent.err = fmt.Errorf("engine: store lookup panicked for corner %v at %v: %v", key.Config, key.Cond, r)
			close(ent.done)
			resolved = true
		}
	}()
	met, ok := store.Get(key)
	if !ok {
		return false
	}
	ent.met = met
	close(ent.done)
	return true
}

// persist writes freshly computed results to the store tier, best-effort:
// a failing store never fails an evaluation, it only loses cache warmth.
func (e *Engine) persist(batch []CacheEntry, em engineMetrics) {
	if len(batch) == 0 {
		return
	}
	if err := e.store.PutBatch(batch); err != nil {
		e.mu.Lock()
		e.storeErrs++
		e.mu.Unlock()
		em.storeErrs.Inc()
	}
}

// BatchOptions configures one batched submission beyond its job list. The
// zero value reproduces plain EvaluateBatch: background context, no
// progress reporting.
type BatchOptions struct {
	// Ctx, when non-nil, cancels the submission: jobs that have not started
	// when the context is done are abandoned — their claims are released
	// from the cache (a cancellation is never memoized) — and the batch
	// returns the context's error. Evaluations already running on the
	// backend complete normally and their results are cached and persisted,
	// so a canceled sweep's finished work stays warm for a rerun.
	Ctx context.Context
	// OnProgress, when non-nil, is called as the batch's cells resolve, with
	// the resolved count so far and the batch size. Cells this batch does
	// not compute itself (memory or store tier, duplicates, keys claimed by
	// a concurrent submission) are reported resolved up front; each backend
	// completion then advances the count by one. Calls are serialized and
	// done is monotone, but they arrive from worker goroutines — keep the
	// callback fast and do not submit engine work from it.
	OnProgress func(done, total int)
	// Recorder, when non-nil, receives this submission's telemetry — the
	// batch/store-lookup/per-cell eval spans and the cache-tier, eval and
	// queue-wait metrics — overriding any engine-level recorder
	// (WithRecorder). Timing never feeds back into results: returned
	// Metrics are byte-identical with or without a recorder, at any
	// worker count.
	Recorder *obs.Recorder
	// ParentSpan parents the submission's batch span (0 = root) — a
	// server job span, a search rung span.
	ParentSpan obs.SpanID
	// Tally, when non-nil, has this submission's own tier counts added to
	// its Hits, DiskHits and Misses (Stats semantics) before the batch
	// returns. Unlike a delta of Engine.Stats, it excludes what concurrent
	// submissions on the same engine resolve meanwhile.
	Tally *Stats
}

// ctx returns the submission's context, defaulting to Background.
func (o BatchOptions) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// EvaluateBatch is the batched submission path: it claims every distinct
// missing key of the batch in one pass (amortizing per-job lock traffic),
// consults the store tier once per key, fans the remaining evaluations out
// on the shared scheduler (internal/sched), and persists the newly computed
// results in a single group write. Results come back in job order —
// independent of the worker count — and duplicate jobs within the batch
// share one evaluation. The first failing job (by index) determines the
// returned error; unlike a plain loop over Evaluate, the batch runs to
// completion so every claimed key ends up resolved.
func (e *Engine) EvaluateBatch(jobs []Job) ([]Metrics, error) {
	return e.EvaluateBatchOpts(jobs, BatchOptions{})
}

// abandon resolves a claimed entry without evaluating it — the submission
// was canceled before the job started. The claim is released from the
// cache so the cancellation is not memoized: a later submission of the key
// claims it afresh and evaluates normally. Waiters already holding the
// entry observe the cancellation error.
func (e *Engine) abandon(key Key, ent *entry, cause error) {
	e.mu.Lock()
	if e.cache[key] == ent {
		delete(e.cache, key)
	}
	e.mu.Unlock()
	ent.err = cause
	close(ent.done)
}

// runBatchBackend resolves a batch's claimed miss set through a
// batch-aware backend. Every claim resolves on every path: a cancellation
// error from the backend abandons the claim (never memoized, exactly like
// the local fan-out's ctx check), any other result closes it, and the
// deferred sweep catches a backend that panicked or violated the
// exactly-once contract — unresolved claims are abandoned with an error
// instead of stranding concurrent waiters (the PR 3 stuck-waiter class).
func (e *Engine) runBatchBackend(ctx context.Context, bb BatchBackend, toRun []Key, owned map[Key]*entry, ran *atomic.Uint64, em engineMetrics, advance func(int)) {
	jobs := make([]Job, len(toRun))
	for i, key := range toRun {
		jobs[i] = key.Job
	}
	// resolved guards the exactly-once contract on this side of the
	// interface: a duplicate onDone for an index is dropped, and the
	// deferred sweep claims any index the backend never reported.
	resolved := make([]atomic.Bool, len(toRun))
	defer func() {
		r := recover()
		for i, key := range toRun {
			if !resolved[i].CompareAndSwap(false, true) {
				continue
			}
			cause := fmt.Errorf("engine: batch backend %s never resolved corner %v at %v", bb.Name(), key.Config, key.Cond)
			if r != nil {
				cause = fmt.Errorf("engine: batch backend %s panicked: %v", bb.Name(), r)
			}
			e.abandon(key, owned[key], cause)
			advance(1)
		}
	}()
	bb.EvaluateJobs(ctx, jobs, e.Workers(), func(i int, met Metrics, err error) {
		if i < 0 || i >= len(toRun) || !resolved[i].CompareAndSwap(false, true) {
			return
		}
		key := toRun[i]
		ent := owned[key]
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			e.abandon(key, ent, err)
		} else {
			ran.Add(1)
			em.evals.Inc()
			ent.met, ent.err = met, err
			close(ent.done)
		}
		advance(1)
	})
}

// EvaluateBatchOpts is EvaluateBatch with a cancellation context and a
// per-cell progress callback (BatchOptions). It is the submission path of
// the exploration layers that must stay interruptible and observable — the
// adaptive search's rungs and the optima-server's jobs.
func (e *Engine) EvaluateBatchOpts(jobs []Job, opts BatchOptions) ([]Metrics, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	ctx := opts.ctx()
	if err := ctx.Err(); err != nil {
		return nil, err // canceled before anything was claimed
	}
	rec, em := e.obsFor(opts.Recorder)
	var batchArg string
	if rec != nil {
		batchArg = fmt.Sprintf("%d jobs", len(jobs))
	}
	bspan := rec.StartSpan(opts.ParentSpan, obs.CatBatch, "evaluate-batch", batchArg)
	defer bspan.End()
	batchStart := rec.Now()
	var progMu sync.Mutex
	resolved := 0
	advance := func(n int) {
		if opts.OnProgress == nil || n == 0 {
			return
		}
		progMu.Lock()
		resolved += n
		opts.OnProgress(resolved, len(jobs))
		progMu.Unlock()
	}
	bname := e.backend.Name()

	// Phase 1: one locked pass claims every key this batch will compute and
	// resolves the rest against the memory tier.
	ents := make([]*entry, len(jobs))
	owned := make(map[Key]*entry)
	var ownedKeys []Key
	var memHits uint64
	e.mu.Lock()
	store := e.store
	for i, j := range jobs {
		key := Key{Backend: bname, Job: j}
		if ent, ok := e.cache[key]; ok {
			// Cached, in flight elsewhere, or a duplicate earlier in this
			// batch — all share the entry.
			e.hits++
			memHits++
			ents[i] = ent
			continue
		}
		ent := &entry{done: make(chan struct{})}
		e.cache[key] = ent
		owned[key] = ent
		ownedKeys = append(ownedKeys, key)
		ents[i] = ent
	}
	e.mu.Unlock()
	em.hitsMem.Add(float64(memHits))

	// Phase 2: store tier. The index lookup is memory-speed, so this stays
	// serial; only true misses proceed to the backend. A cancellation here
	// stops the lookups — the remaining keys fall through to phase 3, which
	// abandons them.
	toRun := ownedKeys
	var fromDisk uint64
	if store != nil && len(ownedKeys) > 0 {
		var lookupArg string
		if rec != nil {
			lookupArg = fmt.Sprintf("%d keys", len(ownedKeys))
		}
		lookup := rec.StartSpan(bspan.ID(), obs.CatStore, "lookup", lookupArg)
		toRun = toRun[:0]
		for n, key := range ownedKeys {
			if ctx.Err() != nil {
				toRun = append(toRun, ownedKeys[n:]...)
				break
			}
			if ent := owned[key]; e.storeResolve(store, key, ent) {
				if ent.err == nil {
					fromDisk++
				}
				continue
			}
			toRun = append(toRun, key)
		}
		lookup.End()
		if fromDisk > 0 {
			e.mu.Lock()
			e.diskHits += fromDisk
			e.mu.Unlock()
			em.hitsStore.Add(float64(fromDisk))
		}
	}
	// Everything the batch does not compute itself — memory and store hits,
	// duplicates, keys in flight under a concurrent submission — is resolved
	// from this batch's point of view.
	advance(len(jobs) - len(toRun))

	// Phase 3: backend fan-out over the remaining keys. Every entry is
	// resolved (results and errors both — panics and cancellations
	// included), so concurrent waiters never hang. The worker budget is
	// split between job-level fan-out and the per-job intra budget of
	// IntraBackend backends.
	var ran atomic.Uint64
	if len(toRun) > 0 {
		if bb, ok := e.backend.(BatchBackend); ok {
			// A batch-aware backend (the remote coordinator) takes the whole
			// miss set in one call and resolves each claim through onDone —
			// distribution happens behind the Backend interface, so the
			// exploration layers above this method are untouched.
			e.runBatchBackend(ctx, bb, toRun, owned, &ran, em, advance)
		} else {
			jobWorkers, intra, extra := e.splitBudget(len(toRun))
			_, _ = sched.Map(jobWorkers, toRun, func(i int, key Key) (struct{}, error) {
				if err := ctx.Err(); err != nil {
					e.abandon(key, owned[key], err)
				} else {
					ran.Add(1)
					grant := intra
					if i < extra {
						grant++
					}
					em.queueWait.Observe((rec.Now() - batchStart).Seconds())
					e.runClaimed(owned[key], key, grant, rec, bspan.ID(), em)
				}
				advance(1)
				return struct{}{}, nil
			})
		}
		// Only jobs that reached the backend are misses — abandoned jobs
		// were neither served nor evaluated.
		if n := ran.Load(); n > 0 {
			e.mu.Lock()
			e.misses += n
			e.mu.Unlock()
		}
		// Phase 4: persist the new results in one group. Abandoned entries
		// carry the cancellation error and are skipped, so a canceled batch
		// persists exactly the work it finished.
		if store != nil && ran.Load() > 0 {
			batch := make([]CacheEntry, 0, len(toRun))
			for _, key := range toRun {
				if ent := owned[key]; ent.err == nil {
					batch = append(batch, CacheEntry{Key: key, Met: ent.met})
				}
			}
			e.persist(batch, em)
		}
	}

	if t := opts.Tally; t != nil {
		t.Hits += memHits
		t.DiskHits += fromDisk
		t.Misses += ran.Load()
	}

	// Assemble in job order; first error (by index) wins.
	results := make([]Metrics, len(jobs))
	for i, ent := range ents {
		<-ent.done
		if ent.err != nil {
			// The condition is part of the failure's identity: a PVT sweep
			// fails at one excursion point, and the caller needs to know which.
			return nil, fmt.Errorf("engine: %s corner %v at %v: %w", bname, jobs[i].Config, jobs[i].Cond, ent.err)
		}
		results[i] = ent.met
	}
	return results, nil
}

// EvaluateAll scores every job and returns the metrics in job order — the
// result is independent of the worker count. It delegates to the batched
// submission path, so per-job scheduling is amortized and results persist
// in groups when a store is attached.
func (e *Engine) EvaluateAll(jobs []Job) ([]Metrics, error) {
	return e.EvaluateBatch(jobs)
}

// Jobs expands a configuration list at one condition.
func Jobs(cfgs []mult.Config, cond device.PVT) []Job {
	jobs := make([]Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = Job{Config: cfg, Cond: cond}
	}
	return jobs
}
