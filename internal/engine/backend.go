package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/mult"
	"optima/internal/obs"
	"optima/internal/sched"
	"optima/internal/spice"
	"optima/internal/sram"
	"optima/internal/stats"
)

// Backend names used by the built-in backends and the CLI flags.
const (
	BackendBehavioral = "behavioral"
	BackendGolden     = "golden"
)

// ValidateBackendName rejects names ByName would not accept. Callers that
// take a backend name from user input should validate it here before
// wiring it into a Context or Engine.
func ValidateBackendName(name string) error {
	switch name {
	case "", BackendBehavioral, BackendGolden:
		return nil
	}
	return fmt.Errorf("engine: unknown backend %q (want %s or %s)",
		name, BackendBehavioral, BackendGolden)
}

// ByName constructs a built-in backend from its CLI name. An empty name
// means behavioral.
func ByName(name string, model *core.Model, tech device.Tech, scfg spice.Config) (Backend, error) {
	if err := ValidateBackendName(name); err != nil {
		return nil, err
	}
	if name == BackendGolden {
		return NewGoldenBackend(tech, scfg), nil
	}
	return Behavioral{Model: model}, nil
}

// Metrics scores one design corner over the full 16×16 input space at one
// operating condition — the unit result of the evaluation service.
type Metrics struct {
	Config mult.Config
	Cond   device.PVT
	// EpsMul is the mean |error| in ADC LSBs over all input pairs (the
	// paper's ϵ_mul). The behavioral backend computes the expectation over
	// the analog noise analytically; the golden backend measures the
	// deterministic transfer.
	EpsMul float64
	// EpsLarge / EpsSmall split EpsMul by expected product
	// (≥ / < ProductMax/2) — the paper's Fig. 8 small-operand analysis.
	EpsLarge, EpsSmall float64
	// EMul is the mean multiplication energy [J] (the paper's E_mul).
	EMul float64
	// SigmaMaxLSB is the analog standard deviation at the maximum discharge
	// (15,15) in LSBs — the paper's variation-corner criterion. The
	// behavioral backend computes it analytically from Eq. 6; the golden
	// backend estimates it by Monte-Carlo mismatch sampling
	// (GoldenSigmaSamples).
	SigmaMaxLSB float64
	// SigmaMaxVolt is the same in volts (the paper quotes 5.04 mV worst case).
	SigmaMaxVolt float64
	// LSBVolt is the corner's calibrated ADC step.
	LSBVolt float64
}

// FOM is the paper's Eq. 9 figure of merit 1/(ϵ_mul·E_mul), in 1/(LSB·fJ).
func (m Metrics) FOM() float64 {
	if m.EpsMul <= 0 || m.EMul <= 0 {
		return 0
	}
	return 1 / (m.EpsMul * m.EMul * 1e15)
}

// Backend evaluates one design corner at one operating condition. An
// implementation must be deterministic (same job, same result) and safe for
// concurrent use — the engine caches results by (backend name, job) and
// fans jobs out across workers.
type Backend interface {
	Name() string
	Evaluate(cfg mult.Config, cond device.PVT) (Metrics, error)
}

// IntraBackend is optionally implemented by backends that can spend an
// intra-job worker budget inside a single evaluation. The engine negotiates
// the split of its total worker bound: each job of a fan-out is granted
// total/jobWorkers intra workers, so job-level × intra-job concurrency
// never oversubscribes the budget. Implementations must return identical
// Metrics at every budget (the engine's cache stores them by key alone).
type IntraBackend interface {
	Backend
	// EvaluateBudget is Evaluate with up to intra workers of internal
	// parallelism; intra <= 0 means GOMAXPROCS, 1 means serial.
	EvaluateBudget(cfg mult.Config, cond device.PVT, intra int) (Metrics, error)
}

// BatchBackend is optionally implemented by backends that evaluate a
// whole batch at once — the remote coordinator (internal/remote) ships a
// batch's cells to its worker fleet instead of having the engine fan them
// out across local goroutines. The engine hands EvaluateJobs every cell
// of a batched submission that missed all cache tiers, with the total
// worker budget as a hint for any local fallback evaluation.
//
// The contract: onDone is called exactly once per job index, from any
// goroutine, with either the job's Metrics or its error; a job abandoned
// because ctx was canceled reports an error wrapping ctx.Err().
// EvaluateJobs returns only after every onDone call has completed, and
// Metrics must be byte-identical to what Evaluate would return — the
// content-addressed cache stores them by key alone.
type BatchBackend interface {
	Backend
	EvaluateJobs(ctx context.Context, jobs []Job, workers int, onDone func(i int, met Metrics, err error))
}

// Behavioral is the fast backend: OPTIMA's calibrated models, with the
// error expectation over mismatch (Eq. 6) and readout noise computed
// analytically — no Monte-Carlo jitter, so corner selection is
// deterministic.
type Behavioral struct {
	Model *core.Model
}

// Name implements Backend.
func (Behavioral) Name() string { return BackendBehavioral }

// Evaluate implements Backend.
func (b Behavioral) Evaluate(cfg mult.Config, cond device.PVT) (Metrics, error) {
	bm, err := mult.NewBehavioral(b.Model, cfg, cond)
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{Config: cfg, Cond: cond, LSBVolt: bm.LSBVolt}
	err = m.accumulate(func(a, d uint) (eps, energy float64, err error) {
		// The deterministic table path returns exactly Multiply(a, d, nil)
		// without the per-call model evaluations or event-kernel
		// allocations — the metrics (and therefore every persisted cache
		// entry) are unchanged.
		r, err := bm.MultiplyDet(a, d)
		if err != nil {
			return 0, 0, err
		}
		sigma := math.Hypot(r.Sigma, bm.ADCSigma)
		eps = ExpectedAbsError(r.VComb-bm.OffsetVolt, sigma, bm.LSBVolt, r.Expected)
		if a == mult.OperandMax && d == mult.OperandMax {
			m.SigmaMaxVolt = r.Sigma
			m.SigmaMaxLSB = r.Sigma / bm.LSBVolt
		}
		return eps, r.Energy, nil
	})
	if err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// Golden is the reference backend: every evaluation runs the full input
// space through transistor-level transient simulation (hundreds of
// transients per corner — orders of magnitude slower; that gap is the
// paper's headline speed-up). The backend memoizes the 16 per-configuration
// ADC trim transients across operating conditions: the trim depends only on
// the configuration, so a PVT sweep over one corner pays it once instead of
// once per condition. Use NewGoldenBackend; the zero value also works (the
// trim cache initializes lazily).
//
// Golden implements IntraBackend: EvaluateBudget fans the 64 distinct
// input-space transients (one per input code and bit line, composed into
// all 256 pairs) and the Monte-Carlo sigma samples of one corner out across
// an intra-job worker budget, with Metrics guaranteed identical at any
// budget.
type Golden struct {
	Tech  device.Tech
	Spice spice.Config

	mu    sync.Mutex
	trims map[mult.Config]*trimEntry
	// trimCtr mirrors trimCals into an attached recorder's registry
	// (Engine.WithRecorder → setRecorder); nil when none is attached.
	trimCtr *obs.Counter
	// trimCals counts trim calibrations actually run (observability for
	// tests and the trim-cache benchmark).
	trimCals atomic.Int64
}

// trimEntry is one trim-cache slot with singleflight semantics: the first
// claimant computes, concurrent claimants wait on done instead of running
// a duplicate 16-transient calibration.
type trimEntry struct {
	done chan struct{}
	trim mult.GoldenTrim
	err  error
}

// NewGoldenBackend returns a golden backend with an empty trim cache.
func NewGoldenBackend(tech device.Tech, scfg spice.Config) *Golden {
	return &Golden{Tech: tech, Spice: scfg, trims: map[mult.Config]*trimEntry{}}
}

// Name implements Backend.
func (*Golden) Name() string { return BackendGolden }

// TrimCalibrations returns how many trim calibrations (16 golden transients
// each) the backend has run — evaluations beyond the first per configuration
// hit the cache and add nothing, including concurrent first evaluations
// (singleflight).
func (g *Golden) TrimCalibrations() int64 { return g.trimCals.Load() }

// setRecorder wires the backend's trim-calibration counter into a
// recorder's registry; a nil recorder detaches it (nil handles no-op).
func (g *Golden) setRecorder(rec *obs.Recorder) {
	ctr := rec.Metrics().Counter("optima_trim_calibrations_total",
		"golden ADC trim calibrations run (16 transients each)")
	g.mu.Lock()
	g.trimCtr = ctr
	g.mu.Unlock()
}

// trimFor returns the configuration's ADC trim, calibrating on first use
// with up to intra workers. Concurrent first calls of the same
// configuration share one calibration: the first claims a cache entry and
// computes, the rest wait on its done channel (the same claimed-entry
// pattern as the engine's result cache). Errors are cached — the
// calibration is deterministic, so a failing configuration fails the same
// way every time.
func (g *Golden) trimFor(cfg mult.Config, intra int, rec *obs.Recorder, parent obs.SpanID) (mult.GoldenTrim, error) {
	g.mu.Lock()
	if g.trims == nil {
		g.trims = map[mult.Config]*trimEntry{}
	}
	if ent, ok := g.trims[cfg]; ok {
		g.mu.Unlock()
		<-ent.done
		return ent.trim, ent.err
	}
	ent := &trimEntry{done: make(chan struct{})}
	g.trims[cfg] = ent
	ctr := g.trimCtr
	g.mu.Unlock()

	g.trimCals.Add(1)
	ctr.Inc()
	var arg string
	if rec != nil {
		arg = fmt.Sprintf("%v", cfg)
	}
	span := rec.StartSpan(parent, obs.CatTrim, "trim-calibrate", arg)
	func() {
		// done closes on every path: a panicking calibration is recovered
		// into the entry's error so waiters never block on a dead claim.
		defer func() {
			if r := recover(); r != nil {
				ent.err = fmt.Errorf("engine: golden trim calibration panicked for %v: %v", cfg, r)
			}
			close(ent.done)
		}()
		ent.trim, ent.err = mult.CalibrateGoldenTrimObserved(g.Tech, cfg, g.Spice, intra, rec, span.ID())
	}()
	span.End()
	return ent.trim, ent.err
}

// GoldenSigmaSamples is the Monte-Carlo mismatch population the golden
// backend uses to estimate σ at the maximum discharge — the variation-
// corner criterion the behavioral backend computes analytically from
// Eq. 6. Each sample simulates the four bit lines of the (15,15) input.
const GoldenSigmaSamples = 24

// goldenSigmaSeed is the base seed of the Monte-Carlo sigma estimate.
// Sample s draws from its own generator seeded goldenSigmaSeed+s
// (splitmix-decorrelated by stats.NewRNG), so the sample set — and with it
// the Metrics — is independent of how samples are scheduled across intra-
// job workers.
const goldenSigmaSeed = 0x600dc0de

// Evaluate implements Backend: the serial (intra = 1) evaluation path.
func (g *Golden) Evaluate(cfg mult.Config, cond device.PVT) (Metrics, error) {
	return g.EvaluateBudget(cfg, cond, 1)
}

// EvaluateBudget implements IntraBackend. The per-corner transients — the
// 16 trim transients of a cold configuration, the 64 matched (input code,
// bit line) transients of the input space, and the GoldenSigmaSamples
// mismatch samples of the (15,15) input — fan out across up to intra
// workers, each with its own integrator scratch and — for the Monte-Carlo
// phase — its own per-sample seeded RNG and cell state. Workers fill fixed
// slots indexed by (a, i) and by sample, and the Metrics reduction composes
// and walks the 256 pairs serially in (a, d) order, so the result is
// byte-identical to the serial path at any worker count — the engine's
// content-addressed cache contract.
func (g *Golden) EvaluateBudget(cfg mult.Config, cond device.PVT, intra int) (Metrics, error) {
	return g.evaluateObserved(cfg, cond, intra, nil, 0)
}

// evaluateObserved is the golden evaluation with telemetry: a trim span
// (with per-transient children) on a cold configuration, and one phase
// span each for the input-space fan-out and the Monte-Carlo sigma pass,
// all under parent. A nil recorder records nothing — this IS the plain
// EvaluateBudget path — and timing never feeds into the returned Metrics.
func (g *Golden) evaluateObserved(cfg mult.Config, cond device.PVT, intra int, rec *obs.Recorder, parent obs.SpanID) (Metrics, error) {
	trim, err := g.trimFor(cfg, intra, rec, parent)
	if err != nil {
		return Metrics{}, err
	}
	gm, err := mult.NewGoldenWithTrim(g.Tech, cfg, cond, g.Spice, trim)
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{Config: cfg, Cond: cond, LSBVolt: gm.LSBVolt}

	score, err := inputSpace(gm, intra, rec, parent)
	if err != nil {
		return Metrics{}, err
	}
	// Serial reduction in (a, d) order through the shared scaffold.
	if err := m.accumulate(score); err != nil {
		return Metrics{}, err
	}

	// Monte-Carlo workers reuse integrator buffers between transients; the
	// pool hands each in-flight sample a private Scratch.
	var scratch sync.Pool

	// σ at the maximum discharge via Monte-Carlo mismatch sampling, one
	// deterministic RNG stream per sample (seed fixed — same job, same
	// result), reduced serially in sample order.
	sampleIdx := make([]int, GoldenSigmaSamples)
	for s := range sampleIdx {
		sampleIdx[s] = s
	}
	var mcArg string
	if rec != nil {
		mcArg = fmt.Sprintf("%d samples", GoldenSigmaSamples)
	}
	mcSpan := rec.StartSpan(parent, obs.CatPhase, "monte-carlo", mcArg)
	vcombs, err := sched.Map(intra, sampleIdx, func(_ int, s int) (float64, error) {
		scr, _ := scratch.Get().(*spice.Scratch)
		if scr == nil {
			scr = &spice.Scratch{}
		}
		defer scratch.Put(scr)
		var cells sram.Word
		cells.SampleMismatch(g.Tech, stats.NewRNG(goldenSigmaSeed+uint64(s)))
		r, err := gm.MultiplyCells(mult.OperandMax, mult.OperandMax, &cells, scr)
		if err != nil {
			return 0, err
		}
		return r.VComb, nil
	})
	mcSpan.End()
	if err != nil {
		return Metrics{}, err
	}
	var vAcc stats.Accumulator
	for _, v := range vcombs {
		vAcc.Add(v)
	}
	m.SigmaMaxVolt = vAcc.StdDev()
	m.SigmaMaxLSB = m.SigmaMaxVolt / gm.LSBVolt
	return m, nil
}

// inputSpace runs the input-space phase of one golden corner and returns
// the per-pair scorer Metrics.accumulate reduces. With matched cells the
// transient of bit line i in pair (a, d) depends on (a, i) alone, so the
// 64 distinct transients run once, under one "input-space" span, and
// every pair composes from its code's row of the table.
func inputSpace(gm *mult.Golden, intra int, rec *obs.Recorder, parent obs.SpanID) (func(a, d uint) (eps, energy float64, err error), error) {
	var arg string
	if rec != nil {
		arg = fmt.Sprintf("%d transients", mult.MatchedTransients)
	}
	span := rec.StartSpan(parent, obs.CatPhase, "input-space", arg)
	tab, _, err := gm.MatchedDischarges(intra)
	span.End()
	if err != nil {
		return nil, err
	}
	return func(a, d uint) (eps, energy float64, err error) {
		r := gm.Compose(a, d, &tab[a])
		return math.Abs(float64(r.ErrorLSB())), r.Energy, nil
	}, nil
}

// accumulate scores the full 16×16 input space with the supplied per-pair
// evaluator, filling the mean error/energy fields. Both backends share
// this scaffold so the metric definitions (large/small split, averaging)
// cannot drift apart.
func (m *Metrics) accumulate(eval func(a, d uint) (eps, energy float64, err error)) error {
	var epsAcc, largeAcc, smallAcc, eAcc stats.Accumulator
	for a := uint(0); a <= mult.OperandMax; a++ {
		for d := uint(0); d <= mult.OperandMax; d++ {
			eps, energy, err := eval(a, d)
			if err != nil {
				return err
			}
			epsAcc.Add(eps)
			if int(a*d) >= mult.ProductMax/2 {
				largeAcc.Add(eps)
			} else {
				smallAcc.Add(eps)
			}
			eAcc.Add(energy)
		}
	}
	m.EpsMul = epsAcc.Mean()
	m.EpsLarge = largeAcc.Mean()
	m.EpsSmall = smallAcc.Mean()
	m.EMul = eAcc.Mean()
	return nil
}

// ExpectedAbsError returns E[|code − expected|] for a Gaussian analog value
// N(mu, sigma) quantized with the given LSB and clamped to the ADC range.
// Exported for the per-result profile analyses in internal/dse.
func ExpectedAbsError(mu, sigma, lsb float64, expected int) float64 {
	if sigma <= 0 {
		code := int(math.Round(mu / lsb))
		if code < 0 {
			code = 0
		}
		if code > mult.ADCMax {
			code = mult.ADCMax
		}
		return math.Abs(float64(code - expected))
	}
	// Sum |k − expected|·P(code = k) over codes within ±6σ of the mean.
	lo := int(math.Floor((mu-6*sigma)/lsb)) - 1
	hi := int(math.Ceil((mu+6*sigma)/lsb)) + 1
	if lo < 0 {
		lo = 0
	}
	if hi > mult.ADCMax {
		hi = mult.ADCMax
	}
	inv := 1 / (sigma * math.Sqrt2)
	cdf := func(v float64) float64 { return 0.5 * (1 + math.Erf((v-mu)*inv)) }
	var sum float64
	for k := lo; k <= hi; k++ {
		lower := (float64(k) - 0.5) * lsb
		upper := (float64(k) + 0.5) * lsb
		var p float64
		switch {
		case k == 0:
			p = cdf(upper) // everything below the first boundary clamps to 0
		case k == mult.ADCMax:
			p = 1 - cdf(lower)
		default:
			p = cdf(upper) - cdf(lower)
		}
		sum += math.Abs(float64(k-expected)) * p
	}
	// Account for truncated tails outside [lo, hi] when they clamp.
	if lo > 0 {
		sum += math.Abs(float64(lo-expected)) * cdf((float64(lo)-0.5)*lsb)
	}
	if hi < mult.ADCMax {
		sum += math.Abs(float64(hi-expected)) * (1 - cdf((float64(hi)+0.5)*lsb))
	}
	return sum
}
