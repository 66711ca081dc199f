package engine

import (
	"math"
	"testing"

	"optima/internal/core"
	"optima/internal/mult"
	"optima/internal/spice"
	"optima/internal/sram"
	"optima/internal/stats"
)

// referenceMultiply is the per-pair golden multiplication with transients
// and readout interleaved per bit line and the peripheral energy added
// last. It shares no code with mult's table path, so the bitwise test
// below fails if the composition order there drifts. clamped reports
// whether the ADC code or a bit line's ΔV hit a clamp.
func referenceMultiply(g *mult.Golden, a, d uint, cells *sram.Word, scr *spice.Scratch) (r mult.Result, clamped bool, err error) {
	if cells == nil {
		cells = &sram.Word{}
	}
	r = mult.Result{A: a, D: d, Expected: int(a * d)}
	vwl := g.Cfg.DACVoltage(a, g.Cond.VDD)
	var sum float64
	for i := 0; i < mult.OperandBits; i++ {
		if d&(1<<uint(i)) == 0 {
			continue
		}
		dp := cells[i].DischargePath(g.Tech, vwl, g.Cond)
		tr, err := dp.DischargeScratch(g.Cfg.BitTime(i), g.Spice, 0, scr)
		if err != nil {
			return mult.Result{}, false, err
		}
		dv := g.Cond.VDD - tr.Waveform.Final()[0]
		if dv < 0 {
			dv, clamped = 0, true
		}
		r.DeltaV[i] = dv
		sum += dv
		r.Energy += spice.DefaultCBL * g.Cond.VDD * dv
	}
	r.VComb = sum / mult.OperandBits
	code := int(math.Round((r.VComb - g.OffsetVolt) / g.LSBVolt))
	if code < 0 {
		code, clamped = 0, true
	}
	if code > mult.ADCMax {
		code, clamped = mult.ADCMax, true
	}
	r.Code = code
	r.Energy += mult.DefaultDACCap*g.Cond.VDD*vwl + mult.DefaultADCEnergy + mult.DefaultCtrlEnergy
	return r, clamped, nil
}

// referenceGoldenEvaluate is the golden corner evaluation as it was before
// the input space went through the (a, i) table: all 256 pairs multiplied
// one by one, reduced serially through Metrics.accumulate, then the
// Monte-Carlo sigma pass. It also returns each pair's (|error|, energy)
// score in (a, d) order and how many pairs hit a clamp.
func referenceGoldenEvaluate(t *testing.T, g *Golden, j Job) (Metrics, []pairScore, int) {
	t.Helper()
	trim, err := g.trimFor(j.Config, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := mult.NewGoldenWithTrim(g.Tech, j.Config, j.Cond, g.Spice, trim)
	if err != nil {
		t.Fatal(err)
	}
	m := Metrics{Config: j.Config, Cond: j.Cond, LSBVolt: gm.LSBVolt}
	var scr spice.Scratch
	clamps := 0
	var pairs []pairScore
	if err := m.accumulate(func(a, d uint) (eps, energy float64, err error) {
		r, clamped, err := referenceMultiply(gm, a, d, nil, &scr)
		if clamped {
			clamps++
		}
		p := pairScore{math.Abs(float64(r.ErrorLSB())), r.Energy}
		pairs = append(pairs, p)
		return p.eps, p.energy, err
	}); err != nil {
		t.Fatal(err)
	}
	var vAcc stats.Accumulator
	for s := 0; s < GoldenSigmaSamples; s++ {
		var cells sram.Word
		cells.SampleMismatch(g.Tech, stats.NewRNG(goldenSigmaSeed+uint64(s)))
		r, _, err := referenceMultiply(gm, mult.OperandMax, mult.OperandMax, &cells, &scr)
		if err != nil {
			t.Fatal(err)
		}
		vAcc.Add(r.VComb)
	}
	m.SigmaMaxVolt = vAcc.StdDev()
	m.SigmaMaxLSB = m.SigmaMaxVolt / gm.LSBVolt
	return m, pairs, clamps
}

// pairScore is one input pair's contribution to Metrics.accumulate.
type pairScore struct{ eps, energy float64 }

// metricsBitsDiff names the first Metrics field whose bits differ, or "".
func metricsBitsDiff(got, want Metrics) string {
	if got.Config != want.Config || got.Cond != want.Cond {
		return "corner"
	}
	for _, f := range []struct {
		name string
		g, w float64
	}{
		{"EpsMul", got.EpsMul, want.EpsMul},
		{"EpsLarge", got.EpsLarge, want.EpsLarge},
		{"EpsSmall", got.EpsSmall, want.EpsSmall},
		{"EMul", got.EMul, want.EMul},
		{"SigmaMaxLSB", got.SigmaMaxLSB, want.SigmaMaxLSB},
		{"SigmaMaxVolt", got.SigmaMaxVolt, want.SigmaMaxVolt},
		{"LSBVolt", got.LSBVolt, want.LSBVolt},
	} {
		if math.Float64bits(f.g) != math.Float64bits(f.w) {
			return f.name
		}
	}
	return ""
}

// TestGoldenInputSpaceBitwise pins the table-driven input space to the
// per-pair reduction bit for bit: every Metrics field of three configs
// (one whose readout clamps at both ends of the ADC range) at the three
// conditions of a robust sweep, at intra budgets 1, 2 and GOMAXPROCS.
// The per-pair scores are compared too: the means in Metrics can absorb
// a last-bit change in a single pair's energy.
func TestGoldenInputSpaceBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("golden-simulation bound")
	}
	calib := core.QuickCalibration()
	conds, err := ParseConditionSet("TT@1V@27C,SS@0.9V@60C,FF@1.1V@0C")
	if err != nil {
		t.Fatal(err)
	}
	// Short τ0 with the DAC starting at 0 V: the smallest products read
	// below code 0 at TT and the largest above the ADC range at FF.
	clampCfg := mult.Config{Tau0: 0.02e-9, VDAC0: 0, VDACFS: 1.0}
	cfgs := []mult.Config{
		{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0},
		{Tau0: 0.28e-9, VDAC0: 0.5, VDACFS: 0.7},
		clampCfg,
	}
	ref := NewGoldenBackend(calib.Tech, calib.Spice)
	clamped := 0
	for _, j := range MatrixJobs(cfgs, conds) {
		want, wantPairs, clamps := referenceGoldenEvaluate(t, ref, j)
		if j.Config == clampCfg {
			clamped += clamps
		}
		trim, err := ref.trimFor(j.Config, 1, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, intra := range []int{1, 2, 0} {
			// A fresh backend per budget runs the trim at that budget too.
			got, err := NewGoldenBackend(calib.Tech, calib.Spice).EvaluateBudget(j.Config, j.Cond, intra)
			if err != nil {
				t.Fatal(err)
			}
			if f := metricsBitsDiff(got, want); f != "" {
				t.Fatalf("%v at %v, intra=%d: %s differs from the per-pair reduction\n  got  %+v\n  want %+v",
					j.Config, j.Cond, intra, f, got, want)
			}
			gm, err := mult.NewGoldenWithTrim(calib.Tech, j.Config, j.Cond, calib.Spice, trim)
			if err != nil {
				t.Fatal(err)
			}
			score, err := inputSpace(gm, intra, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for k, w := range wantPairs {
				a, d := uint(k/(mult.OperandMax+1)), uint(k%(mult.OperandMax+1))
				eps, energy, _ := score(a, d)
				if math.Float64bits(eps) != math.Float64bits(w.eps) || math.Float64bits(energy) != math.Float64bits(w.energy) {
					t.Fatalf("%v at %v, intra=%d: pair (%d, %d) scores (%v, %v), per-pair reference (%v, %v)",
						j.Config, j.Cond, intra, a, d, eps, energy, w.eps, w.energy)
				}
			}
		}
	}
	if clamped == 0 {
		t.Fatalf("%v clamps no readout at any condition; the test needs a clamping corner", clampCfg)
	}
}
