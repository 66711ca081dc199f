package main

import (
	"fmt"
	"math"
	"sort"

	"optima/internal/core"
	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/mult"
	"optima/internal/obs"
	"optima/internal/search"
	"optima/internal/stats"
)

// exploreConditions are the PVT conditions every explored config is scored
// at.
const exploreConditions = "TT@1V@27C,SS@0.9V@60C,FF@1.1V@0C"

// exploreConfigs is how many configs of the paper's grid one op explores.
const exploreConfigs = 8

// exploreTransients is the golden-transient count of the default
// calibration recipe: the op checks it exactly.
const exploreTransients = 895

// explore is the paper's loop as every CLI run pays it: calibrate the
// model, score a slice of the design space on golden transients across
// PVT, rank it robustly, and measure how far the behavioral model lands
// from the golden one on the same cells.
type explore struct {
	calib core.CalibrationConfig
	cfgs  []mult.Config
	conds engine.ConditionSet
}

// setupExplore builds only the inputs: the tech card and calibration
// recipe (seeded Monte-Carlo), the seeded config slice, the conditions.
func setupExplore(seed uint64, _ string, _ *obs.Recorder) (workload, error) {
	calib := core.DefaultCalibration()
	calib.Workers = workers
	calib.Seed ^= seed
	conds, err := engine.ParseConditionSet(exploreConditions)
	if err != nil {
		return nil, err
	}
	cfgs, err := pickConfigs(dse.DefaultGrid(), exploreConfigs, seed)
	if err != nil {
		return nil, err
	}
	return &explore{calib: calib, cfgs: cfgs, conds: conds}, nil
}

func (e *explore) close() error { return nil }

func (e *explore) op(env opEnv) (opResult, error) {
	sp := env.span("core.calibrate")
	model, err := core.Calibrate(e.calib)
	sp.End()
	if err != nil {
		return opResult{}, err
	}
	if got := model.Report.GoldenTransients; got != exploreTransients {
		return opResult{}, fmt.Errorf("calibration ran %d golden transients, want %d", got, exploreTransients)
	}

	gold := engine.NewGoldenBackend(e.calib.Tech, e.calib.Spice)
	geng := engine.New(gold, workers).WithRecorder(env.rec)
	sp = env.span("engine.matrix")
	mat, err := geng.EvaluateMatrixOpts(e.cfgs, e.conds, engine.BatchOptions{Recorder: env.rec, ParentSpan: sp.ID()})
	sp.End()
	if err != nil {
		return opResult{}, err
	}
	cells := uint64(len(e.cfgs) * e.conds.Len())
	if got := geng.Stats().Misses; got != cells {
		return opResult{}, fmt.Errorf("golden matrix ran %d evaluations, want %d", got, cells)
	}
	trims := gold.TrimCalibrations()
	if trims != int64(len(e.cfgs)) {
		return opResult{}, fmt.Errorf("golden matrix ran %d trim calibrations, want %d", trims, len(e.cfgs))
	}

	sp = env.span("dse.robust")
	robust := dse.RobustFromMatrix(mat)
	sp.End()

	beng := engine.New(engine.Behavioral{Model: model}, workers).WithRecorder(env.rec)
	sp = env.span("engine.compare")
	cmp, err := engine.CompareAll(beng, geng, engine.MatrixJobs(e.cfgs, e.conds))
	sp.End()
	if err != nil {
		return opResult{}, err
	}
	gaps := make([]float64, len(cmp))
	var gap float64
	for i, c := range cmp {
		gaps[i] = c.DeltaEps
		gap += math.Abs(c.DeltaEps)
	}
	gap /= float64(len(cmp))

	digest, err := digestOf(struct {
		Report core.FitReport
		Robust []search.RobustPoint
		Gaps   []float64
	}{model.Report, search.RobustPoints(robust), gaps})
	if err != nil {
		return opResult{}, err
	}
	return opResult{
		digest: digest,
		rmsMV:  model.Report.VDDRMSVolts * 1e3,
		counts: map[string]float64{
			"core.golden_transients":   float64(model.Report.GoldenTransients),
			"golden.trim_calibrations": float64(trims),
			"engine.model_gap_lsb":     gap,
		},
	}, nil
}

// pickConfigs draws n distinct valid configs of the grid from the seed. The
// draw is balanced so every seed costs about the same: each τ0 value (which
// sets the transient length, hence the golden cost) is used equally often,
// and the V_DAC,0 and V_DAC,FS values (which set the model gap) as evenly
// as n allows. The configs come back in grid order.
func pickConfigs(g dse.Grid, n int, seed uint64) ([]mult.Config, error) {
	rng := stats.NewRNG(seed)
	for attempt := 0; attempt < 100; attempt++ {
		tau := balanced(len(g.Tau0s), n, rng)
		v0 := balanced(len(g.VDAC0s), n, rng)
		fs := balanced(len(g.VDACFSs), n, rng)
		type pick struct{ t, v, f int }
		seen := map[pick]bool{}
		var picks []pick
		for i := 0; i < n; i++ {
			p := pick{tau[i], v0[i], fs[i]}
			cfg := mult.Config{Tau0: g.Tau0s[p.t], VDAC0: g.VDAC0s[p.v], VDACFS: g.VDACFSs[p.f]}
			if seen[p] || cfg.Validate() != nil {
				break
			}
			seen[p] = true
			picks = append(picks, p)
		}
		if len(picks) < n {
			continue
		}
		sort.Slice(picks, func(i, j int) bool {
			a, b := picks[i], picks[j]
			if a.t != b.t {
				return a.t < b.t
			}
			if a.v != b.v {
				return a.v < b.v
			}
			return a.f < b.f
		})
		out := make([]mult.Config, n)
		for i, p := range picks {
			out[i] = mult.Config{Tau0: g.Tau0s[p.t], VDAC0: g.VDAC0s[p.v], VDACFS: g.VDACFSs[p.f]}
		}
		return out, nil
	}
	return nil, fmt.Errorf("no %d distinct valid configs drawn from the grid", n)
}

// balanced returns n indices into k values in seeded order, each value used
// ⌊n/k⌋ or ⌈n/k⌉ times; which values get the extra use is seeded too.
func balanced(k, n int, rng *stats.RNG) []int {
	offset := rng.IntN(k)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = (i + offset) % k
	}
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}
