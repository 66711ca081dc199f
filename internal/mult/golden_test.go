package mult

import (
	"fmt"
	"math"
	"testing"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/spice"
	"optima/internal/sram"
)

// referenceMultiplyCells is the golden multiplication as one function —
// transients and readout interleaved per bit line, peripheral energy last.
// It is the independent reference the table path (MatchedDischarges +
// Compose) must reproduce bit for bit, so it deliberately shares no code
// with either.
func referenceMultiplyCells(g *Golden, a, d uint, cells *sram.Word) (Result, error) {
	if cells == nil {
		cells = &sram.Word{}
	}
	res := Result{A: a, D: d, Expected: int(a * d)}
	vwl := g.Cfg.DACVoltage(a, g.Cond.VDD)
	var sum float64
	for i := 0; i < OperandBits; i++ {
		if d&(1<<uint(i)) == 0 {
			continue
		}
		dp := cells[i].DischargePath(g.Tech, vwl, g.Cond)
		tr, err := dp.DischargeScratch(g.Cfg.BitTime(i), g.Spice, 0, nil)
		if err != nil {
			return Result{}, err
		}
		res.Transients++
		dv := g.Cond.VDD - tr.Waveform.Final()[0]
		if dv < 0 {
			dv = 0
		}
		res.DeltaV[i] = dv
		sum += dv
		res.Energy += spice.DefaultCBL * g.Cond.VDD * dv
	}
	res.VComb = sum / OperandBits
	code := int(math.Round((res.VComb - g.OffsetVolt) / g.LSBVolt))
	if code < 0 {
		code = 0
	}
	if code > ADCMax {
		code = ADCMax
	}
	res.Code = code
	res.Energy += DefaultDACCap*g.Cond.VDD*vwl + DefaultADCEnergy + DefaultCtrlEnergy
	return res, nil
}

// resultDiff names the first field where two results differ, comparing
// floats by their bits (so -0 vs +0 or a rounding change counts), or ""
// when they are identical.
func resultDiff(got, want Result) string {
	bits := func(name string, g, w float64) string {
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("%s %v (%#x) vs %v (%#x)", name, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		return ""
	}
	switch {
	case got.A != want.A || got.D != want.D || got.Expected != want.Expected:
		return fmt.Sprintf("operands %d×%d=%d vs %d×%d=%d", got.A, got.D, got.Expected, want.A, want.D, want.Expected)
	case got.Code != want.Code:
		return fmt.Sprintf("Code %d vs %d", got.Code, want.Code)
	case got.Transients != want.Transients:
		return fmt.Sprintf("Transients %d vs %d", got.Transients, want.Transients)
	}
	for _, d := range []string{
		bits("VComb", got.VComb, want.VComb),
		bits("Sigma", got.Sigma, want.Sigma),
		bits("Energy", got.Energy, want.Energy),
	} {
		if d != "" {
			return d
		}
	}
	for i := range got.DeltaV {
		if d := bits(fmt.Sprintf("DeltaV[%d]", i), got.DeltaV[i], want.DeltaV[i]); d != "" {
			return d
		}
	}
	return ""
}

// TestComposeFromTableMatchesMultiplyCells pins the table path bitwise:
// composing every (a, d) from the 64 matched (a, i) transients gives the
// whole Result of the per-pair golden multiplication (Transients aside —
// Compose runs none), and MultiplyCells itself still matches the
// reference including its per-call transient count.
func TestComposeFromTableMatchesMultiplyCells(t *testing.T) {
	if testing.Short() {
		t.Skip("golden backend is slow")
	}
	tech := core.QuickCalibration().Tech
	cond := device.PVT{Corner: device.CornerSS, VDD: 0.9, TempC: 60}
	g, err := NewGolden(tech, fomConfig(), cond, spice.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab, ran, err := g.MatchedDischarges(2)
	if err != nil {
		t.Fatal(err)
	}
	if ran != MatchedTransients || MatchedTransients != 64 {
		t.Fatalf("table ran %d transients, want 64", ran)
	}
	for a := uint(0); a <= OperandMax; a++ {
		for d := uint(0); d <= OperandMax; d++ {
			want, err := referenceMultiplyCells(g, a, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := g.Compose(a, d, &tab[a])
			if got.Transients != 0 {
				t.Fatalf("Compose(%d, %d) reports %d transients, want 0", a, d, got.Transients)
			}
			got.Transients = want.Transients
			if diff := resultDiff(got, want); diff != "" {
				t.Fatalf("Compose(%d, %d) from the table differs from the per-pair multiply: %s", a, d, diff)
			}
			mc, err := g.MultiplyCells(a, d, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if diff := resultDiff(mc, want); diff != "" {
				t.Fatalf("MultiplyCells(%d, %d) differs from the reference: %s", a, d, diff)
			}
		}
	}
}

// TestMatchedDischargesWorkerInvariant pins the table's fixed-slot fan-out:
// any worker count gives the same bits, and each slot is the single
// transient BitDischarge runs for it.
func TestMatchedDischargesWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("golden backend is slow")
	}
	g, err := NewGolden(core.QuickCalibration().Tech, powerConfig(), device.Nominal(), spice.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := g.MatchedDischarges(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{3, 0} {
		par, _, err := g.MatchedDischarges(w)
		if err != nil {
			t.Fatal(err)
		}
		if *par != *serial {
			t.Fatalf("workers=%d table differs from the serial one", w)
		}
	}
	dv, err := g.BitDischarge(9, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(dv) != math.Float64bits(serial[9][2]) {
		t.Fatalf("BitDischarge(9, 2) = %v, table slot %v", dv, serial[9][2])
	}
	if _, err := g.BitDischarge(OperandMax+1, 0, nil, nil); err == nil {
		t.Fatal("out-of-range code accepted")
	}
	if _, err := g.BitDischarge(0, OperandBits, nil, nil); err == nil {
		t.Fatal("out-of-range bit line accepted")
	}
}
