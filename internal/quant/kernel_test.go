package quant

import (
	"math"
	"testing"

	"optima/internal/device"
	"optima/internal/dnn"
	"optima/internal/mult"
	"optima/internal/stats"
)

// refQConvForward is the direct quantized convolution loop the im2col
// kernels replaced, kept verbatim as the reference: one Mul per in-bounds,
// nonzero-weight tap in (n, oc, oh, ow, ic, kh, kw) order.
func refQConvForward(s *qConv, x *dnn.Tensor, m Multiplier) *dnn.Tensor {
	out := dnn.NewTensor(x.N, s.outC, x.H, x.W)
	pad := s.k / 2
	codes := make([]uint8, x.Len())
	for i, v := range x.Data {
		codes[i] = s.act.Quantize(v)
	}
	za := s.act.Zero
	outScale := s.act.Scale * s.w.Scale
	for n := 0; n < x.N; n++ {
		for oc := 0; oc < s.outC; oc++ {
			for oh := 0; oh < x.H; oh++ {
				for ow := 0; ow < x.W; ow++ {
					var acc, wSum int32
					for ic := 0; ic < s.inC; ic++ {
						for kh := 0; kh < s.k; kh++ {
							ih := oh + kh - pad
							if ih < 0 || ih >= x.H {
								continue
							}
							rowBase := x.Idx(n, ic, ih, 0)
							wBase := (oc*s.inC+ic)*s.k*s.k + kh*s.k
							for kw := 0; kw < s.k; kw++ {
								iw := ow + kw - pad
								if iw < 0 || iw >= x.W {
									continue
								}
								wc := s.w.Codes[wBase+kw]
								if wc == 0 {
									continue
								}
								acc += m.Mul(codes[rowBase+iw], wc)
								wSum += int32(wc)
							}
						}
					}
					acc -= za * wSum
					out.Data[out.Idx(n, oc, oh, ow)] = float64(acc)*outScale + s.bias[oc]
				}
			}
		}
	}
	return out
}

// refForward runs q with every quantized convolution on the reference loop.
func refForward(q *QNetwork, x *dnn.Tensor, m Multiplier) *dnn.Tensor {
	for _, st := range q.stages {
		switch s := st.(type) {
		case *qConv:
			x = refQConvForward(s, x, m)
		case *qResidual:
			main := refQConvForward(s.conv1, x, m)
			main = inferForward(s.relu1, main)
			main = refQConvForward(s.conv2, main, m)
			skip := x
			if s.proj != nil {
				skip = refQConvForward(s.proj, x, m)
			}
			sum := main.Clone()
			for i := range sum.Data {
				sum.Data[i] += skip.Data[i]
			}
			x = inferForward(s.relu2, sum)
		default:
			x = st.forward(x, m)
		}
	}
	return x
}

// mulOnly hides a multiplier's table interface, forcing one Mul per
// multiplication.
type mulOnly struct{ m Multiplier }

func (p mulOnly) Mul(a uint8, w int8) int32 { return p.m.Mul(a, w) }

func randTensor(rng *stats.RNG, n, c, h, w int) *dnn.Tensor {
	x := dnn.NewTensor(n, c, h, w)
	for i := range x.Data {
		x.Data[i] = rng.Gaussian(0, 1)
	}
	return x
}

// zooQNet quantizes an untrained zoo model on a random calibration batch.
func zooQNet(t *testing.T, name string, seed uint64) (*QNetwork, *dnn.Tensor) {
	t.Helper()
	rng := stats.NewRNG(seed)
	net, err := dnn.NewZooModel(name, 3, 12, 12, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Quantize(net, randTensor(rng, 8, 3, 12, 12))
	if err != nil {
		t.Fatal(err)
	}
	return q, randTensor(rng, 3, 3, 12, 12)
}

func fomBehavioral(t *testing.T) *mult.Behavioral {
	t.Helper()
	b, err := mult.NewBehavioral(testModel(t), mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0}, device.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newInMemory(t *testing.T, rng *stats.RNG) *InMemory {
	t.Helper()
	im, err := NewInMemory(fomBehavioral(t), rng)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func sameLogits(t *testing.T, what string, got, want *dnn.Tensor) {
	t.Helper()
	if !got.ShapeEq(want) {
		t.Fatalf("%s: shape %s, want %s", what, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: logit %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestQConvTableMatchesPerCallMul: on every zoo model the table kernel must
// produce the bits a per-call Mul run produces, for Exact and for the
// deterministic InMemory, with the same operation count.
func TestQConvTableMatchesPerCallMul(t *testing.T) {
	for i, name := range dnn.ZooModels() {
		q, x := zooQNet(t, name, uint64(40+i))

		q.Mult = Exact{}
		sameLogits(t, name+" Exact", q.Forward(x), refForward(q, x, Exact{}))
		q.Mult = mulOnly{Exact{}}
		sameLogits(t, name+" Exact per-call", q.Forward(x), refForward(q, x, Exact{}))

		table, perCall := newInMemory(t, nil), newInMemory(t, nil)
		q.Mult = table
		got := q.Forward(x)
		q.Mult = mulOnly{perCall}
		sameLogits(t, name+" InMemory", got, q.Forward(x))
		if table.Ops() != perCall.Ops() || table.Ops() == 0 {
			t.Fatalf("%s: table path counted %d ops, per-call %d", name, table.Ops(), perCall.Ops())
		}
	}
}

// TestQConvSampledMatchesReference pins the sampled multiplier's RNG call
// order: a seeded noisy InMemory must reproduce the direct loop's logits
// bit for bit.
func TestQConvSampledMatchesReference(t *testing.T) {
	for i, name := range dnn.ZooModels() {
		q, x := zooQNet(t, name, uint64(50+i))
		got, want := newInMemory(t, stats.NewRNG(9)), newInMemory(t, stats.NewRNG(9))
		q.Mult = got
		sameLogits(t, name+" sampled", q.Forward(x), refForward(q, x, want))
		if got.Ops() != want.Ops() {
			t.Fatalf("%s: %d ops, reference %d", name, got.Ops(), want.Ops())
		}
	}
}

// TestQConvOpsMatchMACCount: the table path's bulk count must equal the
// per-sample multiplication count times the batch size.
func TestQConvOpsMatchMACCount(t *testing.T) {
	for i, name := range dnn.ZooModels() {
		q, x := zooQNet(t, name, uint64(60+i))
		macs, err := q.CountQuantMACs(x.Sample(0))
		if err != nil {
			t.Fatal(err)
		}
		im := newInMemory(t, nil)
		q.Mult = im
		q.Forward(x)
		if want := int64(x.N) * macs; im.Ops() != want {
			t.Fatalf("%s: %d ops for %d samples, want %d × %d = %d", name, im.Ops(), x.N, x.N, macs, want)
		}
	}
}

// TestQuantTopKWorkerInvariance: concurrent batches on the table path give
// the serial accuracies and operation count.
func TestQuantTopKWorkerInvariance(t *testing.T) {
	q, _ := zooQNet(t, "ResNet50S", 70)
	rng := stats.NewRNG(71)
	x := randTensor(rng, 70, 3, 12, 12)
	labels := make([]int, x.N)
	for i := range labels {
		labels[i] = int(rng.Uint64() % 10)
	}
	type run struct {
		top1, topk float64
		ops        int64
	}
	var runs []run
	for _, workers := range []int{1, 4} {
		im := newInMemory(t, nil)
		q.Mult, q.Workers = im, workers
		top1, topk := q.TopKAccuracy(x, labels, 3)
		runs = append(runs, run{top1, topk, im.Ops()})
	}
	if runs[0] != runs[1] {
		t.Fatalf("worker count changed the result: 1 worker %+v, 4 workers %+v", runs[0], runs[1])
	}
}
