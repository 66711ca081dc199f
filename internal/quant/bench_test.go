package quant

import (
	"testing"

	"optima/internal/core"
	"optima/internal/device"
	"optima/internal/dnn"
	"optima/internal/mult"
	"optima/internal/stats"
)

func benchLUT(b *testing.B, rng *stats.RNG) *InMemory {
	b.Helper()
	model, err := core.Calibrate(core.QuickCalibration())
	if err != nil {
		b.Fatal(err)
	}
	bm, err := mult.NewBehavioral(model, mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}, device.Nominal())
	if err != nil {
		b.Fatal(err)
	}
	im, err := NewInMemory(bm, rng)
	if err != nil {
		b.Fatal(err)
	}
	return im
}

func BenchmarkInMemoryMulDeterministic(b *testing.B) {
	im := benchLUT(b, nil)
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += im.Mul(uint8(i&15), int8(i%8))
	}
	_ = sink
}

func BenchmarkInMemoryMulSampled(b *testing.B) {
	im := benchLUT(b, stats.NewRNG(1))
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += im.Mul(uint8(i&15), int8(i%8))
	}
	_ = sink
}

// BenchmarkQConvForward times one quantized 8→16-channel 3×3 convolution
// over a batch of four 12×12 inputs: through the deterministic multiplier's
// product table, and with the sampled multiplier's one Mul per operation.
func BenchmarkQConvForward(b *testing.B) {
	rng := stats.NewRNG(5)
	w := make([]float64, 16*8*3*3)
	for i := range w {
		w[i] = rng.Gaussian(0, 1)
	}
	s := &qConv{inC: 8, outC: 16, k: 3, act: calibrate(0, 3), w: QuantizeWeights(w), bias: make([]float64, 16)}
	x := dnn.NewTensor(4, 8, 12, 12)
	for i := range x.Data {
		x.Data[i] = 3 * rng.Float64()
	}
	for _, tc := range []struct {
		name string
		rng  *stats.RNG
	}{{"table", nil}, {"sampled", stats.NewRNG(1)}} {
		im := benchLUT(b, tc.rng)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.forward(x, im)
			}
		})
	}
}
