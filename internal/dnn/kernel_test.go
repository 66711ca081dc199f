package dnn

import (
	"fmt"
	"math"
	"testing"

	"optima/internal/stats"
)

// refConvInfer is the direct 7-deep convolution loop the im2col + GEMM
// kernel replaced, kept verbatim as the bitwise reference: each output is
// bias, then ic → kh → kw over the in-bounds taps.
func refConvInfer(c *Conv2D, x *Tensor) *Tensor {
	out := NewTensor(x.N, c.OutC, x.H, x.W)
	pad := c.K / 2
	for n := 0; n < x.N; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			bias := c.Bias.W[oc]
			for oh := 0; oh < x.H; oh++ {
				for ow := 0; ow < x.W; ow++ {
					sum := bias
					for ic := 0; ic < c.InC; ic++ {
						for kh := 0; kh < c.K; kh++ {
							ih := oh + kh - pad
							if ih < 0 || ih >= x.H {
								continue
							}
							rowBase := x.Idx(n, ic, ih, 0)
							wBase := ((oc*c.InC+ic)*c.K + kh) * c.K
							for kw := 0; kw < c.K; kw++ {
								iw := ow + kw - pad
								if iw < 0 || iw >= x.W {
									continue
								}
								sum += x.Data[rowBase+iw] * c.Weight.W[wBase+kw]
							}
						}
					}
					out.Data[out.Idx(n, oc, oh, ow)] = sum
				}
			}
		}
	}
	return out
}

// refConvBackward is the direct backward loop the GEMM kernels replaced,
// kept verbatim as the bitwise reference. It accumulates into c's
// gradients in (n, oc, oh, ow, ic, kh, kw) order and skips zero grads.
func refConvBackward(c *Conv2D, x, grad *Tensor) *Tensor {
	din := x.ZerosLike()
	pad := c.K / 2
	for n := 0; n < x.N; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			for oh := 0; oh < x.H; oh++ {
				for ow := 0; ow < x.W; ow++ {
					g := grad.Data[grad.Idx(n, oc, oh, ow)]
					if g == 0 {
						continue
					}
					c.Bias.G[oc] += g
					for ic := 0; ic < c.InC; ic++ {
						for kh := 0; kh < c.K; kh++ {
							ih := oh + kh - pad
							if ih < 0 || ih >= x.H {
								continue
							}
							rowBase := x.Idx(n, ic, ih, 0)
							wBase := ((oc*c.InC+ic)*c.K + kh) * c.K
							for kw := 0; kw < c.K; kw++ {
								iw := ow + kw - pad
								if iw < 0 || iw >= x.W {
									continue
								}
								c.Weight.G[wBase+kw] += g * x.Data[rowBase+iw]
								din.Data[rowBase+iw] += g * c.Weight.W[wBase+kw]
							}
						}
					}
				}
			}
		}
	}
	return din
}

// convShape is one convolution geometry: the layer and its input.
type convShape struct {
	name         string
	inC, outC, k int
	h, w         int
}

// zooConvShapes walks every zoo model on the dataset's 3×12×12 input and
// returns each convolution with the spatial size it sees.
func zooConvShapes(t *testing.T) []convShape {
	t.Helper()
	var shapes []convShape
	add := func(c *Conv2D, h, w int) {
		shapes = append(shapes, convShape{c.Name(), c.InC, c.OutC, c.K, h, w})
	}
	for _, name := range ZooModels() {
		net, err := NewZooModel(name, 3, 12, 12, 10, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		h, w := 12, 12
		for _, l := range net.Layers {
			switch c := l.(type) {
			case *Conv2D:
				add(c, h, w)
			case *Residual:
				add(c.Conv1, h, w)
				add(c.Conv2, h, w)
				if c.Proj != nil {
					add(c.Proj, h, w)
				}
			case *MaxPool2:
				h, w = h/2, w/2
			}
		}
	}
	return shapes
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkConvKernels runs the kernel and the reference on twin layers with
// identical weights and pre-seeded (nonzero) gradients, and demands
// bitwise-equal outputs, input gradients and parameter gradients.
func checkConvKernels(t *testing.T, s convShape, n int, zeroEvery int, seed uint64) {
	t.Helper()
	rng := stats.NewRNG(seed)
	got := NewConv2D(s.name, s.inC, s.outC, s.k, rng)
	want := NewConv2D(s.name, s.inC, s.outC, s.k, rng)
	for _, p := range [][2]*Param{{got.Weight, want.Weight}, {got.Bias, want.Bias}} {
		for i := range p[0].W {
			p[0].W[i] = rng.Gaussian(0, 1)
			p[0].G[i] = rng.Gaussian(0, 0.1)
		}
		copy(p[1].W, p[0].W)
		copy(p[1].G, p[0].G)
	}
	x := randomTensor(rng, n, s.inC, s.h, s.w)
	for i := range x.Data {
		if i%5 == 0 {
			x.Data[i] = 0 // post-ReLU inputs carry exact zeros
		}
	}
	out := got.Forward(x, true)
	sameBits(t, s.name+" out", out.Data, refConvInfer(want, x).Data)
	sameBits(t, s.name+" infer", got.infer(x).Data, out.Data)

	grad := randomTensor(rng, n, s.outC, s.h, s.w)
	if zeroEvery > 0 {
		for i := range grad.Data {
			switch {
			case i%zeroEvery == 0:
				grad.Data[i] = 0
			case i%zeroEvery == 1:
				grad.Data[i] = math.Copysign(0, -1)
			}
		}
	}
	din := got.Backward(grad)
	wantDin := refConvBackward(want, x, grad)
	sameBits(t, s.name+" din", din.Data, wantDin.Data)
	sameBits(t, s.name+" Weight.G", got.Weight.G, want.Weight.G)
	sameBits(t, s.name+" Bias.G", got.Bias.G, want.Bias.G)

	// A second pair accumulates on top of the first, as in a batch loop.
	sameBits(t, s.name+" din (2nd)", got.Backward(grad).Data, refConvBackward(want, x, grad).Data)
	sameBits(t, s.name+" Weight.G (2nd)", got.Weight.G, want.Weight.G)
	sameBits(t, s.name+" Bias.G (2nd)", got.Bias.G, want.Bias.G)
}

// TestConvKernelsBitwiseGolden pins the convolution kernels to the direct
// loops they replaced: every float output, input gradient and parameter
// gradient must have the same bits, because the Table II/III accuracies
// are byte-compared across versions.
func TestConvKernelsBitwiseGolden(t *testing.T) {
	shapes := zooConvShapes(t)
	if len(shapes) == 0 {
		t.Fatal("no zoo convolutions found")
	}
	shapes = append(shapes,
		convShape{"proj1x1", 8, 16, 1, 6, 6},
		convShape{"k5-nonsquare", 3, 5, 5, 7, 5},
		convShape{"k3-1x1-input", 4, 6, 3, 1, 1},
		convShape{"k5-narrow", 2, 3, 5, 2, 9},
		convShape{"odd-channels", 5, 7, 3, 5, 3},
	)
	seen := map[string]bool{}
	for i, s := range shapes {
		key := fmt.Sprintf("%d-%d-%d-%dx%d", s.inC, s.outC, s.k, s.h, s.w)
		if seen[key] {
			continue
		}
		seen[key] = true
		t.Run(key, func(t *testing.T) {
			checkConvKernels(t, s, 3, 0, uint64(100+i))
			checkConvKernels(t, s, 2, 3, uint64(200+i)) // exact ±0 grads
		})
	}
}
