package main

import (
	"encoding/json"
	"testing"

	"optima/internal/dse"
	"optima/internal/mult"
	"optima/internal/search"
	"optima/internal/stats"
)

func TestDigestStable(t *testing.T) {
	type out struct {
		Gaps   []float64
		Counts map[string]int
	}
	a := out{Gaps: []float64{1.5, 2.25}, Counts: map[string]int{}}
	a.Counts["x"], a.Counts["y"] = 1, 2
	b := out{Gaps: []float64{1.5, 2.25}, Counts: map[string]int{}}
	b.Counts["y"], b.Counts["x"] = 2, 1 // other insertion order
	da, err := digestOf(a)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := digestOf(b)
	if da != db {
		t.Errorf("equal values digest differently: %s vs %s", da, db)
	}
	for i := 0; i < 3; i++ {
		if again, _ := digestOf(a); again != da {
			t.Fatalf("digest changed on repeat %d", i)
		}
	}
	b.Gaps[1] = 2.2500000000000004 // one ulp away
	if dc, _ := digestOf(b); dc == da {
		t.Error("a one-ulp change kept the digest")
	}
}

func testReport(evaluated uint64, eps float64) []byte {
	rep := search.JSONReport{
		Front:     []search.FrontPoint{{Tau0NS: 0.2, VDAC0V: 0.4, VDACFSV: 0.9, EpsMul: eps}},
		Finalists: 1,
		Trace: search.Trace{SpaceSize: 1200, Conditions: "TT@1V@27C", Sampled: 1000,
			Rungs: []search.RungStats{{Rung: 0, Fidelity: "behavioral", Candidates: 1000, Conditions: 3,
				Evaluated: evaluated, CacheHits: 3000 - evaluated, StoreHits: 7, Promoted: 500}}},
	}
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err)
	}
	return b
}

// TestWithoutAccounting: reports that differ only in a rung's engine
// accounting compare equal, anything else still differs, and a report
// round-trips through the normalization byte for byte once zeroed.
func TestWithoutAccounting(t *testing.T) {
	cold, err := withoutAccounting(testReport(3000, 1.25))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := withoutAccounting(testReport(0, 1.25))
	if err != nil {
		t.Fatal(err)
	}
	if string(cold) != string(warm) {
		t.Errorf("accounting survived:\n%s\n%s", cold, warm)
	}
	other, _ := withoutAccounting(testReport(0, 1.2500000000000002))
	if string(other) == string(cold) {
		t.Error("a different front compared equal")
	}
	again, _ := withoutAccounting(cold)
	if string(again) != string(cold) {
		t.Error("normalization is not idempotent")
	}
	var rep search.JSONReport
	if err := json.Unmarshal(cold, &rep); err != nil {
		t.Fatal(err)
	}
	r := rep.Trace.Rungs[0]
	if r.Evaluated != 0 || r.CacheHits != 0 || r.StoreHits != 0 || r.Candidates != 1000 || r.Promoted != 500 {
		t.Errorf("rung after normalization: %+v", r)
	}
	if _, err := withoutAccounting([]byte("{")); err == nil {
		t.Error("a malformed report normalized")
	}
}

// TestPickConfigsBalanced: the explore slice is seeded, distinct, and
// balanced across the grid's axes, so its cost does not hinge on the seed.
func TestPickConfigsBalanced(t *testing.T) {
	g := dse.DefaultGrid()
	seen := map[string]bool{}
	for seed := uint64(0); seed < 50; seed++ {
		cfgs, err := pickConfigs(g, exploreConfigs, seed)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := pickConfigs(g, exploreConfigs, seed)
		d1, _ := digestOf(cfgs)
		d2, _ := digestOf(again)
		if d1 != d2 {
			t.Fatalf("seed %d: two draws differ", seed)
		}
		seen[d1] = true
		distinct := map[mult.Config]bool{}
		tau, v0, fs := map[float64]int{}, map[float64]int{}, map[float64]int{}
		for _, c := range cfgs {
			distinct[c] = true
			tau[c.Tau0]++
			v0[c.VDAC0]++
			fs[c.VDACFS]++
		}
		if len(distinct) != exploreConfigs {
			t.Errorf("seed %d: %d distinct configs, want %d", seed, len(distinct), exploreConfigs)
		}
		for axis, counts := range map[string]map[float64]int{"tau0": tau, "vdac0": v0, "vdacfs": fs} {
			lo, hi := exploreConfigs, 0
			for _, n := range counts {
				lo, hi = min(lo, n), max(hi, n)
			}
			if hi-lo > 1 || (axis != "vdac0" && len(counts) != 4) {
				t.Errorf("seed %d: %s counts %v are not balanced", seed, axis, counts)
			}
		}
	}
	if len(seen) < 40 {
		t.Errorf("50 seeds drew only %d different slices", len(seen))
	}
}

func TestSeededSliceDeterministic(t *testing.T) {
	x := newTensor(10)
	y := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	a, ay := seededSlice(x, y, 4, stats.NewRNG(3))
	b, by := seededSlice(x, y, 4, stats.NewRNG(3))
	da, _ := digestOf([]any{a.Data, ay})
	db, _ := digestOf([]any{b.Data, by})
	if da != db {
		t.Error("the same seed drew different slices")
	}
	for i := 1; i < len(ay); i++ {
		if ay[i] <= ay[i-1] {
			t.Errorf("slice not in dataset order: %v", ay)
		}
	}
	for i, l := range ay {
		if a.Data[i] != float64(l) {
			t.Errorf("sample %d carries data %v but label %d", i, a.Data[i], l)
		}
	}
}
