package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"optima/internal/obs"
)

// workload is one benchmark workload after set-up.
type workload interface {
	// op runs one operation and checks its output, returning an error for
	// any output that is off (an exact count, a byte comparison). env.rec
	// is nil in plain ops; in traced ops every layer the op touches records
	// into it.
	op(env opEnv) (opResult, error)
	// close releases what set-up built.
	close() error
}

// workloadSpec names a workload and how to set it up.
type workloadSpec struct {
	name string
	// clients is the number of closed-loop clients issuing ops at once.
	clients int
	// setup builds the workload from the seed. dir is a scratch directory
	// inside the checkout; rec is the traced run's recorder (nil in a plain
	// run) for layers that must be handed one at set-up.
	setup func(seed uint64, dir string, rec *obs.Recorder) (workload, error)
}

// opEnv is what one op is handed: the recorder of a traced op (nil in a
// plain op) and the op's root span.
type opEnv struct {
	rec  *obs.Recorder
	root obs.SpanID
}

// span opens a benchmark span under the op's root span (inert in a plain
// op).
func (e opEnv) span(name string) obs.Timer {
	return e.rec.StartSpan(e.root, catBench, name, "")
}

// opResult is what one op reports.
type opResult struct {
	// digest fingerprints the op's output; every op of a run must repeat
	// the run's first digest, traced or not.
	digest string
	// rmsMV is model_rms_mv of the calibration the op ran on.
	rmsMV float64
	// counts are per-op layer counts measured outside the layers (exact
	// ones are also checked by the op itself).
	counts map[string]float64
}

// digestOf fingerprints a value by its JSON encoding.
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// opSample is one measured op.
type opSample struct {
	lat    float64 // seconds
	traced bool
	failed bool
	res    opResult
}

// tracedSlice is what one traced slice of the run leaves besides its ops.
type tracedSlice struct {
	from, to   time.Duration // on the recorder's clock
	prof       cpuShares
	allocBytes uint64
	gcCycles   uint32
	reg        map[string]float64 // registry deltas
}

// runner drives one workload's ops in closed loops and checks each op's
// output against the run's first.
type runner struct {
	w       workload
	clients int
	rec     *obs.Recorder // the traced run's recorder; nil in a plain run

	mu       sync.Mutex
	ref      string
	samples  []opSample
	failures []string
}

// once runs one op, timed and checked. An op fails if it errors or if its
// digest differs from the first successful op's.
func (r *runner) once(traced bool) {
	var env opEnv
	var root obs.Timer
	if traced {
		root = r.rec.StartSpan(0, catBench, "op", "")
		env = opEnv{rec: r.rec, root: root.ID()}
	}
	start := time.Now()
	res, err := r.w.op(env)
	lat := time.Since(start).Seconds()
	root.End()

	r.mu.Lock()
	defer r.mu.Unlock()
	s := opSample{lat: lat, traced: traced, res: res}
	switch {
	case err != nil:
		s.failed = true
		r.failures = append(r.failures, err.Error())
	case r.ref == "":
		r.ref = res.digest
	case res.digest != r.ref:
		s.failed = true
		r.failures = append(r.failures, fmt.Sprintf("output digest %.12s differs from the run's first %.12s", res.digest, r.ref))
	}
	r.samples = append(r.samples, s)
}

// loop runs the clients' closed loops until d has passed; every client
// completes at least one op, and an op in flight at the deadline finishes.
func (r *runner) loop(traced bool, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r.once(traced)
				if !time.Now().Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// traced runs one traced slice: ops carry the recorder, and a CPU profile,
// the allocation counters and the recorder's registry bracket the slice.
func (r *runner) traced(d time.Duration) (tracedSlice, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return tracedSlice{}, fmt.Errorf("cpu profile: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	reg0 := registryValues(r.rec)
	from := r.rec.Now()
	r.loop(true, d)
	to := r.rec.Now()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	reg1 := registryValues(r.rec)
	shares, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return tracedSlice{}, err
	}
	delta := map[string]float64{}
	for k, v := range reg1 {
		delta[k] = v - reg0[k]
	}
	return tracedSlice{
		from: from, to: to, prof: shares,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
		reg:        delta,
	}, nil
}

// registryValues snapshots the recorder's metrics by rendered name.
func registryValues(rec *obs.Recorder) map[string]float64 {
	out := map[string]float64{}
	for _, s := range rec.Metrics().Samples() {
		out[s.Name] = s.Value
	}
	return out
}

// tracedSlices is how many slices a traced run's window is cut into. They
// alternate plain and traced, starting plain, so host drift over the run
// falls on both kinds of op alike and their medians give the tracing
// overhead.
const tracedSlices = 4

// measurement is one run's timed ops and traced slices.
type measurement struct {
	samples  []opSample // the warm-up op first
	elapsed  float64    // seconds of the timed window (warm-up excluded)
	slices   []tracedSlice
	failures []string
}

// measure runs one untimed warm-up op (the first op in a process pays
// one-time costs users pay once), then the timed window: plain ops only
// in a plain run, alternating plain and traced slices in a traced run.
func measure(w workload, clients int, window time.Duration, rec *obs.Recorder) (*measurement, error) {
	r := &runner{w: w, clients: clients, rec: rec}
	r.once(false)
	m := &measurement{}
	start := time.Now()
	if rec == nil {
		r.loop(false, window)
	} else {
		part := window / tracedSlices
		for i := 0; i < tracedSlices; i++ {
			if i%2 == 0 {
				r.loop(false, part)
				continue
			}
			sl, err := r.traced(part)
			if err != nil {
				return nil, err
			}
			m.slices = append(m.slices, sl)
		}
	}
	m.elapsed = time.Since(start).Seconds()
	m.samples, m.failures = r.samples, r.failures
	return m, nil
}

// Set-up is repeated until it has run at least minSetups times and for at
// least minSetupTime in total (at most maxSetups times); setup_s is the
// median, so neither one slow first set-up in a process nor a burst of
// host contention during a microsecond set-up decides it.
const (
	minSetups    = 3
	maxSetups    = 100000
	minSetupTime = 250 * time.Millisecond
)

// setUp builds the workload, repeating the set-up in a plain run; the last
// one built is kept. A traced run sets up once: its set-up time is not
// reported, and the layers register against the recorder only once.
func setUp(spec workloadSpec, seed uint64, dir string, rec *obs.Recorder) (workload, []float64, error) {
	var times []float64
	var total time.Duration
	for {
		start := time.Now()
		w, err := spec.setup(seed, dir, rec)
		d := time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		times = append(times, d.Seconds())
		total += d
		done := len(times) >= maxSetups || (len(times) >= minSetups && total >= minSetupTime)
		if rec != nil || done {
			return w, times, nil
		}
		if err := w.close(); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
	}
}
