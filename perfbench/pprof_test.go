package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pbWriter encodes just enough protobuf to build test profiles.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *pbWriter) uint(num int, v uint64) {
	w.varint(uint64(num)<<3 | wireVarint)
	w.varint(v)
}

func (w *pbWriter) msg(num int, body []byte) {
	w.varint(uint64(num)<<3 | wireBytes)
	w.varint(uint64(len(body)))
	w.b = append(w.b, body...)
}

func (w *pbWriter) packed(num int, vs ...uint64) {
	var in pbWriter
	for _, v := range vs {
		in.varint(v)
	}
	w.msg(num, in.b)
}

// testProfile builds a CPU profile with 100 ns of samples: 10 in spice, 20
// in math.Exp inlined into spice, 30 in the runtime under the garbage
// collector, 40 in a dnn closure called from a generic scheduler function.
func testProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"optima/internal/spice.(*Solver).step",
		"math.Exp",
		"runtime.gcBgMarkWorker",
		"runtime.scanobject",
		"optima/internal/dnn.(*Conv2D).Forward.func1",
		"optima/internal/sched.Map[go.shape.*optima/internal/engine.job]",
	}
	var p pbWriter
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pbWriter
		m.uint(1, vt[0])
		m.uint(2, vt[1])
		p.msg(fProfileSampleType, m.b)
	}
	// Samples: packed and unpacked repeated fields both occur in real
	// profiles.
	sample := func(packed bool, locs []uint64, values ...uint64) {
		var m pbWriter
		if packed {
			m.packed(fSampleLocation, locs...)
			m.packed(fSampleValue, values...)
		} else {
			for _, l := range locs {
				m.uint(fSampleLocation, l)
			}
			for _, v := range values {
				m.uint(fSampleValue, v)
			}
		}
		p.msg(fProfileSample, m.b)
	}
	sample(true, []uint64{2, 6}, 1, 10)
	sample(false, []uint64{1}, 1, 20)
	sample(true, []uint64{3, 4}, 1, 30)
	sample(false, []uint64{5, 6}, 1, 40)
	// Locations: location 1 inlines math.Exp (function 2) into spice.
	for _, loc := range []struct {
		id    uint64
		funcs []uint64
	}{{1, []uint64{2, 1}}, {2, []uint64{1}}, {3, []uint64{4}}, {4, []uint64{3}}, {5, []uint64{5}}, {6, []uint64{6}}} {
		var m pbWriter
		m.uint(fLocationID, loc.id)
		m.uint(3, 0x1000+loc.id) // address: skipped
		for _, f := range loc.funcs {
			var line pbWriter
			line.uint(fLineFunction, f)
			line.uint(2, 42) // line number: skipped
			m.msg(fLocationLine, line.b)
		}
		p.msg(fProfileLocation, m.b)
	}
	for id := uint64(1); id <= 6; id++ {
		var m pbWriter
		m.uint(fFunctionID, id)
		m.uint(fFunctionName, id+4)
		p.msg(fProfileFunction, m.b)
	}
	for _, s := range strs {
		p.msg(fProfileString, []byte(s))
	}
	p.uint(9, 12345) // time_nanos: skipped
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseCPUProfileSharesByLeafPackage(t *testing.T) {
	c, err := parseCPUProfile(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.total != 100 {
		t.Fatalf("total = %d, want 100 (the cpu column, not the count column)", c.total)
	}
	for pkg, want := range map[string]float64{
		"optima/internal/spice": 0.1,
		"math":                  0.2,
		"runtime":               0.3,
		"optima/internal/dnn":   0.4,
		"optima/internal/sched": 0, // never a leaf
	} {
		if got := c.share(pkg); math.Abs(got-want) > 1e-12 {
			t.Errorf("share(%s) = %v, want %v", pkg, got, want)
		}
	}
	if got := c.gcShare(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("gcShare = %v, want 0.3", got)
	}
}

func TestCPUSharesAdd(t *testing.T) {
	var sum cpuShares
	one, err := parseCPUProfile(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	sum.add(one)
	sum.add(one)
	if sum.total != 200 || sum.byPkg["math"] != 40 || sum.gcNanos != 60 {
		t.Errorf("sum of two profiles = %+v", sum)
	}
	if got := sum.share("math"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("share after add = %v, want 0.2", got)
	}
	if (cpuShares{}).share("math") != 0 || (cpuShares{}).gcShare() != 0 {
		t.Error("an empty profile reports a share")
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"optima/internal/spice.(*Solver).step":                            "optima/internal/spice",
		"optima/internal/dnn.(*Conv2D).Forward.func1":                     "optima/internal/dnn",
		"optima/internal/sched.Map[go.shape.*optima/internal/engine.job]": "optima/internal/sched",
		"math.Exp":                 "math",
		"runtime.gcBgMarkWorker":   "runtime",
		"sync/atomic.(*Int64).Add": "sync/atomic",
		"main.main":                "main",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseCPUProfileRejectsTruncated(t *testing.T) {
	var p pbWriter
	p.msg(fProfileString, []byte("cpu"))
	p.b = p.b[:len(p.b)-1]
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.b)
	zw.Close()
	if _, err := parseCPUProfile(buf.Bytes()); err == nil {
		t.Error("a truncated profile parsed")
	}
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("a non-gzip profile parsed")
	}
}

var spinSink float64

// TestParseRuntimeProfile reads a profile the Go runtime wrote, so the
// decoder keeps up with the encoder actually in use.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	c, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c.total <= 0 {
		t.Fatal("a 500 ms busy loop left no CPU samples")
	}
	var sum float64
	for pkg := range c.byPkg {
		sum += c.share(pkg)
	}
	if sum < 0.9 || sum > 1+1e-9 {
		t.Errorf("package shares sum to %v, want (nearly) all of the profile", sum)
	}
	if c.share("optima/perfbench") == 0 && c.share("main") == 0 && c.share("math") == 0 {
		t.Errorf("the busy loop's package has no share: %v", c.byPkg)
	}
}
