// Command perfbench is the repository's benchmark: one workload per run,
// one process per workload. A plain run (--trace 0) measures the
// end-to-end metrics with no tracing; a traced run (--trace 1) attaches
// one obs.Recorder and a CPU profile and reports the per-layer metrics.
// Every op's output is checked; the last line of standard output is the
// run's result as one JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"optima/internal/obs"
)

// workers is the worker budget of every engine, evaluation and
// calibration: the load is the same on any host with at least two cores.
const workers = 2

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

// traceCapacity sizes the traced run's span ring; a traced run that
// overflows it fails rather than report per-layer figures from a partial
// trace.
const traceCapacity = 1 << 19

var workloads = []workloadSpec{
	{name: "explore", clients: 1, setup: setupExplore},
	{name: "search", clients: 1, setup: setupSearch},
	{name: "dnn", clients: 1, setup: setupDNN},
	{name: "serve", clients: 2, setup: setupServe},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed: derives every input the workload generates")
	seconds := flag.Float64("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = plain run reporting end-to-end metrics")
	flag.Parse()

	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(workers)
	// The server logs every session and job at info level; a closed loop
	// of them would bury the run's own report.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	out, err := runWorkload(*spec, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(spec workloadSpec, seed uint64, window time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var rec *obs.Recorder
	if traced {
		rec = obs.NewRecorder(obs.RecorderOptions{Capacity: traceCapacity})
	}
	w, setupTimes, err := setUp(spec, seed, dir, rec)
	if err != nil {
		return nil, err
	}
	m, err := measure(w, spec.clients, window, rec)
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s close: %w", spec.name, cerr)
	}
	if err != nil {
		return nil, err
	}

	out := &result{Attempted: len(m.samples), Metrics: map[string]metricValue{}}
	for _, s := range m.samples {
		if s.failed {
			out.Failed++
		}
	}
	for i, f := range m.failures {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "... %d more failed ops\n", len(m.failures)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "failed op: %s\n", f)
	}
	out.Correct = out.Failed == 0
	lat := latencies(m.samples[1:], false)
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ops (%d failed) in %.2fs after %d set-ups (median %.4gs); plain op s: min %.4g median %.4g max %.4g over %d\n",
		spec.name, seed, out.Attempted, out.Failed, m.elapsed, len(setupTimes), median(setupTimes),
		minOf(lat), median(lat), maxOf(lat), len(lat))

	if !traced {
		p := plainRun{setup: setupTimes, m: m, peakMB: peakRSSMB()}
		for _, d := range endToEnd {
			out.Metrics[d.name] = metricValue{d.value(p), d.unit}
		}
		return out, nil
	}

	t := newTracedRun(m, rec)
	if t.dropped > 0 {
		return nil, fmt.Errorf("traced run dropped %d spans: raise the ring capacity (%d)", t.dropped, traceCapacity)
	}
	for _, d := range perLayer {
		out.Metrics[d.name] = metricValue{d.value(t), d.unit}
	}
	report(spec.name, seed, t)
	return out, nil
}

// report prints the traced run's human-readable outputs to standard error
// — the self-time table, the package shares and the tracing overhead —
// and writes its Chrome trace under buildDir.
func report(name string, seed uint64, t *tracedRun) {
	fmt.Fprintf(os.Stderr, "\nself time per traced op (%d ops):\n", int(t.ops))
	writeSelfTimeTable(os.Stderr, selfTimeTable(t.spans, t.self), int(t.ops))

	fmt.Fprintf(os.Stderr, "\nCPU self share by package:\n")
	pkgs := make([]string, 0, len(t.prof.byPkg))
	for p := range t.prof.byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return t.prof.byPkg[pkgs[i]] > t.prof.byPkg[pkgs[j]] })
	for i, p := range pkgs {
		if i == 15 {
			break
		}
		fmt.Fprintf(os.Stderr, "  %6.2f%%  %s\n", 100*t.prof.share(p), p)
	}
	fmt.Fprintf(os.Stderr, "  %6.2f%%  (garbage collector, any leaf)\n", 100*t.prof.gcShare())

	fmt.Fprintf(os.Stderr, "\ntracing overhead: traced op median %.4fs (%d ops) vs plain %.4fs (%d ops): %+.1f%%\n",
		median(t.traced), len(t.traced), median(t.plain), len(t.plain), 100*overhead(t.plain, t.traced))

	path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := writeTrace(path, t.spans); err != nil {
		fmt.Fprintf(os.Stderr, "trace not written: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "chrome trace: %s\n", path)
}

func writeTrace(path string, spans []obs.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteTrace(f, spans)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
