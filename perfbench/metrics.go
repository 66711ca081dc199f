package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"optima/internal/obs"
)

// metric is one reported figure: its name, unit, and how it is computed.
type metric[T any] struct {
	name, unit string
	value      func(T) float64
}

// plainRun is what a plain run's end-to-end metrics are computed from.
type plainRun struct {
	setup  []float64
	m      *measurement
	peakMB float64
}

// timed returns the timed ops: every op but the warm-up.
func (p plainRun) timed() []opSample { return p.m.samples[1:] }

// endToEnd lists the metrics a user of the system sees, reported by every
// workload's plain run.
var endToEnd = []metric[plainRun]{
	{"setup_s", "s", func(p plainRun) float64 { return median(p.setup) }},
	{"op_s", "s", func(p plainRun) float64 { return median(latencies(p.timed(), false)) }},
	{"ops_per_s", "1/s", func(p plainRun) float64 {
		ok := 0
		for _, s := range p.timed() {
			if !s.failed {
				ok++
			}
		}
		return float64(ok) / p.m.elapsed
	}},
	{"mem_peak_mb", "MB", func(p plainRun) float64 { return p.peakMB }},
	{"model_rms_mv", "mV", func(p plainRun) float64 {
		var xs []float64
		for _, s := range p.m.samples {
			if !s.failed {
				xs = append(xs, s.res.rmsMV)
			}
		}
		return median(xs)
	}},
}

// latencies returns the op latencies of the given kind, failed ops
// included: a failed op still took its time.
func latencies(samples []opSample, traced bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.traced == traced {
			out = append(out, s.lat)
		}
	}
	return out
}

// tracedRun is what a traced run's per-layer metrics are computed from.
// Every figure is per traced op.
type tracedRun struct {
	ops     float64
	spans   []obs.Span // recorded inside traced slices, orphans adopted
	self    map[obs.SpanID]time.Duration
	reg     map[string]float64 // registry deltas over the traced slices
	prof    cpuShares
	alloc   float64 // bytes
	gc      float64 // cycles
	counts  map[string]float64
	plain   []float64 // latencies of the plain timed ops
	traced  []float64 // latencies of the traced ops
	dropped uint64
}

func newTracedRun(m *measurement, rec *obs.Recorder) *tracedRun {
	t := &tracedRun{reg: map[string]float64{}, counts: map[string]float64{}, dropped: rec.Dropped()}
	for _, sl := range m.slices {
		t.prof.add(sl.prof)
		t.alloc += float64(sl.allocBytes)
		t.gc += float64(sl.gcCycles)
		for k, v := range sl.reg {
			t.reg[k] += v
		}
	}
	for _, s := range m.samples[1:] {
		if !s.traced {
			t.plain = append(t.plain, s.lat)
			continue
		}
		t.traced = append(t.traced, s.lat)
		t.ops++
		for k, v := range s.res.counts {
			t.counts[k] += v
		}
	}
	var in []obs.Span
	for _, s := range rec.Snapshot() {
		for _, sl := range m.slices {
			if s.Start >= sl.from && s.End() <= sl.to {
				in = append(in, s)
				break
			}
		}
	}
	t.spans = adopt(in)
	t.self = selfTimes(t.spans)
	return t
}

func (t *tracedRun) perOp(v float64) float64 {
	if t.ops == 0 {
		return 0
	}
	return v / t.ops
}

// spanSeconds sums the durations of the spans of one category and name.
func (t *tracedRun) spanSeconds(cat, name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.Cat == cat && s.Name == name {
			d += s.Dur
		}
	}
	return t.perOp(d.Seconds())
}

// selfSeconds sums the self times of every span of one category.
func (t *tracedRun) selfSeconds(cat string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.Cat == cat {
			d += t.self[s.ID]
		}
	}
	return t.perOp(d.Seconds())
}

// family sums a registry family's deltas over its label sets, matching the
// rendered name exactly or with a label block.
func (t *tracedRun) family(name string) float64 {
	var v float64
	for k, x := range t.reg {
		if k == name || strings.HasPrefix(k, name+"{") {
			v += x
		}
	}
	return t.perOp(v)
}

func (t *tracedRun) count(name string) float64 { return t.perOp(t.counts[name]) }

func bench(name string) func(*tracedRun) float64 {
	return func(t *tracedRun) float64 { return t.spanSeconds(catBench, name) }
}

func count(name string) func(*tracedRun) float64 {
	return func(t *tracedRun) float64 { return t.count(name) }
}

// layerPackages are the repository's modules whose CPU share the profile
// reports, each as <layer>.cpu_share.
var layerPackages = []string{
	"core", "spice", "device", "sram", "poly", "linalg", "mult", "engine",
	"store", "dse", "search", "dnn", "quant", "dataset", "server", "obs",
}

// perLayer lists the per-layer metrics of a traced run. Workloads that do
// not touch a layer report 0 for it: that is the "quiet on" prediction.
var perLayer = append([]metric[*tracedRun]{
	{"core.calibrate_s", "s", bench("core.calibrate")},
	{"core.golden_transients", "count", count("core.golden_transients")},
	{"engine.matrix_s", "s", bench("engine.matrix")},
	{"golden.eval_s", "s", func(t *tracedRun) float64 { return t.spanSeconds(obs.CatEval, "golden") }},
	{"golden.trim_s", "s", func(t *tracedRun) float64 { return t.spanSeconds(obs.CatTrim, "trim-calibrate") }},
	{"golden.trim_calibrations", "count", count("golden.trim_calibrations")},
	{"dse.robust_s", "s", bench("dse.robust")},
	{"engine.compare_s", "s", bench("engine.compare")},
	{"engine.model_gap_lsb", "LSB", count("engine.model_gap_lsb")},
	{"store.open_s", "s", bench("store.open")},
	{"store.put_s", "s", func(t *tracedRun) float64 { return t.spanSeconds(obs.CatStore, "put-batch") }},
	{"store.close_s", "s", bench("store.close")},
	{"store.segment_bytes", "B", count("store.segment_bytes")},
	{"store.records", "count", count("store.records")},
	{"search.cold_s", "s", bench("search.cold")},
	{"search.warm_s", "s", bench("search.warm")},
	{"search.rank_s", "s", func(t *tracedRun) float64 { return t.selfSeconds(obs.CatSearch) + t.selfSeconds(obs.CatRung) }},
	{"engine.batch_s", "s", func(t *tracedRun) float64 { return t.spanSeconds(obs.CatBatch, "evaluate-batch") }},
	{"engine.queue_wait_s", "s", func(t *tracedRun) float64 { return t.family("optima_queue_wait_seconds_sum") }},
	{"behavioral.eval_s", "s", func(t *tracedRun) float64 { return t.spanSeconds(obs.CatEval, "behavioral") }},
	{"engine.evals", "count", func(t *tracedRun) float64 { return t.family("optima_evals_total") }},
	{"engine.memory_hits", "count", func(t *tracedRun) float64 { return t.family(`optima_cache_hits_total{tier="memory"}`) }},
	{"engine.store_hits", "count", func(t *tracedRun) float64 { return t.family(`optima_cache_hits_total{tier="store"}`) }},
	{"engine.hit_ratio", "ratio", func(t *tracedRun) float64 {
		hits := t.family("optima_cache_hits_total")
		if all := hits + t.family("optima_evals_total"); all > 0 {
			return hits / all
		}
		return 0
	}},
	{"dnn.fit_s", "s", bench("dnn.fit")},
	{"dnn.infer_s", "s", bench("dnn.infer")},
	{"quant.qat_s", "s", bench("quant.qat")},
	{"quant.quantize_s", "s", bench("quant.quantize")},
	{"quant.infer_s", "s", bench("quant.infer")},
	{"mult.lut_s", "s", bench("mult.lut")},
	{"quant.mult_ops", "count", count("quant.mult_ops")},
	{"dnn.macs", "count", count("dnn.macs")},
	{"server.session_s", "s", bench("server.session")},
	{"server.submit_s", "s", bench("server.submit")},
	{"server.stream_s", "s", bench("server.stream")},
	{"server.result_s", "s", bench("server.result")},
	{"server.events", "count", count("server.events")},
	{"server.result_bytes", "B", count("server.result_bytes")},
	{"hub.dropped", "count", func(t *tracedRun) float64 { return t.family("optima_hub_dropped_total") }},
	{"server.op_p90_s", "s", func(t *tracedRun) float64 {
		v, ok := tailPercentile(t.plain, 0.9)
		if !ok {
			return 0
		}
		return v
	}},
	{"runtime.alloc_mb", "MB", func(t *tracedRun) float64 { return t.perOp(t.alloc / (1 << 20)) }},
	{"runtime.gc_cycles", "count", func(t *tracedRun) float64 { return t.perOp(t.gc) }},
	{"runtime.gc_cpu_share", "ratio", func(t *tracedRun) float64 { return t.prof.gcShare() }},
	{"trace.op_s", "s", func(t *tracedRun) float64 { return median(t.traced) }},
	{"trace.overhead_share", "ratio", func(t *tracedRun) float64 { return overhead(t.plain, t.traced) }},
	{"trace.spans", "count", func(t *tracedRun) float64 { return t.perOp(float64(len(t.spans))) }},
	{"trace.dropped", "count", func(t *tracedRun) float64 { return float64(t.dropped) }},
}, cpuShareMetrics()...)

func cpuShareMetrics() []metric[*tracedRun] {
	out := make([]metric[*tracedRun], len(layerPackages))
	for i, layer := range layerPackages {
		pkg := "optima/internal/" + layer
		out[i] = metric[*tracedRun]{layer + ".cpu_share", "ratio",
			func(t *tracedRun) float64 { return t.prof.share(pkg) }}
	}
	return out
}

// overhead is the tracing overhead: how much longer the median traced op
// took than the median plain op of the same run, as a share of the latter.
func overhead(plain, traced []float64) float64 {
	p := median(plain)
	if p == 0 {
		return 0
	}
	return median(traced)/p - 1
}

// peakRSSMB returns the process's peak resident set size in MiB, from
// /proc where the kernel provides it, else the Go runtime's own total.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
