package quant

import (
	"fmt"

	"optima/internal/dnn"
)

// QNetwork is the quantized execution of a trained float network: every
// convolution and dense layer runs with uint4 activation codes × int4
// weight codes through the pluggable Multiplier; the glue operations
// (ReLU, pooling, residual adds) run in the dequantized domain, as TFLite
// does for non-matmul operators.
type QNetwork struct {
	Name   string
	stages []qStage
	// Mult is the scalar multiplier used by all quantized layers.
	Mult Multiplier
	// Workers bounds the evaluation fan-out of TopKAccuracy
	// (0 = GOMAXPROCS). Ignored when the graph or multiplier forces
	// serial evaluation.
	Workers int
	// serialOnly marks a graph with a stage that has no stateless forward;
	// evaluation then stays on one worker.
	serialOnly bool
}

// qStage is one executable stage of the quantized graph.
type qStage interface {
	forward(x *dnn.Tensor, m Multiplier) *dnn.Tensor
}

// floatStage wraps a shape-only float layer (ReLU, pools).
type floatStage struct{ layer dnn.Layer }

func (s floatStage) forward(x *dnn.Tensor, _ Multiplier) *dnn.Tensor {
	return inferForward(s.layer, x)
}

// inferForward runs a float glue layer statelessly so concurrent batches
// don't race on training state, falling back to the training Forward for
// uncovered layer types (those graphs evaluate serially).
func inferForward(l dnn.Layer, x *dnn.Tensor) *dnn.Tensor {
	if out, ok := dnn.InferenceForward(l, x); ok {
		return out
	}
	return l.Forward(x, false)
}

// qConv executes a quantized convolution.
type qConv struct {
	inC, outC, k int
	act          ActQuant
	w            WeightQuant
	bias         []float64
}

// padCode marks an im2col tap outside the image. It lies past every uint4
// activation code, so the table kernel reads 0 for it under every weight
// and the per-call kernel skips it.
const padCode = ActMax + 1

// forward runs the convolution over an im2col of the activation codes. A
// multiplier that tabulates its products (TableMultiplier) takes the table
// kernel; any other — a sampled InMemory, whose noise stream depends on
// the call order, or an unknown implementation — gets one Mul per
// in-bounds, nonzero-weight tap in (n, oc, oh, ow, ic, kh, kw) order. All
// scratch belongs to the call, so concurrent forwards never share it.
func (s *qConv) forward(x *dnn.Tensor, m Multiplier) *dnn.Tensor {
	out := dnn.NewTensor(x.N, s.outC, x.H, x.W)
	// Quantize the input tensor once.
	codes := make([]uint8, x.Len())
	for i, v := range x.Data {
		codes[i] = s.act.Quantize(v)
	}
	p := x.H * x.W
	col := make([]uint8, s.inC*s.k*s.k*p)
	var tab ProductTable
	tm, table := m.(TableMultiplier)
	table = table && tm.ProductTable(&tab)
	var lut productLUT
	if table {
		s.fillLUT(&lut, &tab)
	}
	for n := 0; n < x.N; n++ {
		dnn.Im2Col(col, codes[n*s.inC*p:(n+1)*s.inC*p], s.inC, x.H, x.W, s.k, uint8(padCode))
		o := out.Data[n*s.outC*p : (n+1)*s.outC*p]
		if table {
			s.sampleByTable(o, col, &lut)
		} else {
			s.sampleByMul(o, col, m)
		}
	}
	if table {
		tm.CountOps(int64(x.N) * s.tapsPerSample(x.H, x.W))
	}
	return out
}

// productLUT is a product table with the zero-point correction folded in,
// indexed [w+WeightMax][a]. Rows run to 256 so a uint8 code indexes them
// without a bounds check; every code past ActMax, padCode included, reads 0.
type productLUT [2*WeightMax + 1][256]int32

// fillLUT sets lut[w][a] = T[a][w] − za·w, leaving the zero-weight row 0
// (a stored zero word never discharges and never reaches Mul).
func (s *qConv) fillLUT(lut *productLUT, t *ProductTable) {
	for wi := range lut {
		w := int32(wi - WeightMax)
		if w == 0 {
			continue
		}
		for a := 0; a <= ActMax; a++ {
			lut[wi][a] = t[a][wi] - s.act.Zero*w
		}
	}
}

// sampleByTable convolves one sample's im2col codes into out [outC][p]
// through the lookup table. Integer sums do not depend on order, so the
// k-outer accumulation equals the per-call kernel's result exactly.
func (s *qConv) sampleByTable(out []float64, col []uint8, lut *productLUT) {
	kd := s.inC * s.k * s.k
	p := len(col) / kd
	outScale := s.act.Scale * s.w.Scale
	acc := make([]int32, p)
	for oc := 0; oc < s.outC; oc++ {
		clear(acc)
		for k, wc := range s.w.Codes[oc*kd : (oc+1)*kd] {
			if wc == 0 {
				continue // stored zero word: no discharge
			}
			row := &lut[int(wc)+WeightMax]
			for j, a := range col[k*p : (k+1)*p][:len(acc)] {
				acc[j] += row[a]
			}
		}
		o := out[oc*p : (oc+1)*p][:len(acc)]
		for j, v := range acc {
			o[j] = float64(v)*outScale + s.bias[oc]
		}
	}
}

// sampleByMul convolves one sample's im2col codes into out [outC][p] with
// one Mul per in-bounds, nonzero-weight tap, in (oc, oh, ow, ic, kh, kw)
// order.
func (s *qConv) sampleByMul(out []float64, col []uint8, m Multiplier) {
	kd := s.inC * s.k * s.k
	p := len(col) / kd
	za := s.act.Zero
	outScale := s.act.Scale * s.w.Scale
	for oc := 0; oc < s.outC; oc++ {
		wrow := s.w.Codes[oc*kd : (oc+1)*kd]
		o := out[oc*p : (oc+1)*p]
		for j := range o {
			var acc, wSum int32
			for k, wc := range wrow {
				a := col[k*p+j]
				if a == padCode || wc == 0 {
					continue // outside the image, or no discharge
				}
				acc += m.Mul(a, wc)
				wSum += int32(wc)
			}
			// Zero-point correction: Σ(a−za)·w = Σ a·w − za·Σw.
			acc -= za * wSum
			o[j] = float64(acc)*outScale + s.bias[oc]
		}
	}
}

// tapsPerSample counts the multiplications of one h×w sample: the in-bounds
// taps with a nonzero weight, as the per-call kernel issues them.
func (s *qConv) tapsPerSample(h, w int) int64 {
	pad := s.k / 2
	inBounds := func(n, kk int) int64 {
		d := kk - pad
		if d < 0 {
			d = -d
		}
		return int64(max(0, n-d))
	}
	var taps int64
	kk := s.k * s.k
	for i, wc := range s.w.Codes {
		if wc != 0 {
			t := i % kk
			taps += inBounds(h, t/s.k) * inBounds(w, t%s.k)
		}
	}
	return taps
}

// qDense executes a quantized dense layer.
type qDense struct {
	in, out int
	act     ActQuant
	w       WeightQuant
	bias    []float64
}

func (s *qDense) forward(x *dnn.Tensor, m Multiplier) *dnn.Tensor {
	out := dnn.NewTensor(x.N, s.out, 1, 1)
	codes := make([]uint8, x.Len())
	for i, v := range x.Data {
		codes[i] = s.act.Quantize(v)
	}
	za := s.act.Zero
	outScale := s.act.Scale * s.w.Scale
	for n := 0; n < x.N; n++ {
		xoff := n * s.in
		for o := 0; o < s.out; o++ {
			var acc, wSum int32
			woff := o * s.in
			for i := 0; i < s.in; i++ {
				wc := s.w.Codes[woff+i]
				if wc == 0 {
					continue
				}
				acc += m.Mul(codes[xoff+i], wc)
				wSum += int32(wc)
			}
			acc -= za * wSum
			out.Data[n*s.out+o] = float64(acc)*outScale + s.bias[o]
		}
	}
	return out
}

// qResidual executes a residual block with quantized convolutions and a
// float skip-add (batch-norms must already be folded).
type qResidual struct {
	conv1, conv2 *qConv
	proj         *qConv // nil when identity skip
	relu1        dnn.Layer
	relu2        dnn.Layer
}

func (s *qResidual) forward(x *dnn.Tensor, m Multiplier) *dnn.Tensor {
	main := s.conv1.forward(x, m)
	main = inferForward(s.relu1, main)
	main = s.conv2.forward(main, m)
	skip := x
	if s.proj != nil {
		skip = s.proj.forward(x, m)
	}
	sum := main.Clone()
	for i := range sum.Data {
		sum.Data[i] += skip.Data[i]
	}
	return inferForward(s.relu2, sum)
}

// Forward runs the quantized network on a float input tensor and returns
// float logits. It is safe for concurrent use when every stage has a
// stateless forward and the multiplier is deterministic — the conditions
// evalWorkers checks before fanning batches out.
func (q *QNetwork) Forward(x *dnn.Tensor) *dnn.Tensor {
	for _, s := range q.stages {
		x = s.forward(x, q.Mult)
	}
	return x
}

// TopKAccuracy evaluates the quantized network, fanning batches out across
// the engine scheduler when the graph and multiplier allow it.
func (q *QNetwork) TopKAccuracy(x *dnn.Tensor, labels []int, k int) (top1, topk float64) {
	return dnn.EvalTopKWorkers(q.Forward, x, labels, k, 32, q.evalWorkers())
}

// evalWorkers returns the evaluation fan-out width: the configured bound
// when concurrent forwards cannot race, one worker otherwise.
func (q *QNetwork) evalWorkers() int {
	if q.serialOnly || !multSafe(q.Mult) {
		return 1
	}
	return q.Workers
}

// multSafe reports whether the multiplier tolerates concurrent Mul calls:
// one whose products tabulate is a pure function of its operands (see
// TableMultiplier). Other implementations are conservatively serial.
func multSafe(m Multiplier) bool {
	tm, ok := m.(TableMultiplier)
	var t ProductTable
	return ok && tm.ProductTable(&t)
}

// Quantize converts a trained float network to INT4 quantized execution.
// Batch-norms are folded first; activation ranges are calibrated by running
// the float network on calib (a representative batch). The initial
// multiplier is Exact (the INT4 baseline); swap q.Mult to inject a corner.
func Quantize(net *dnn.Network, calib *dnn.Tensor) (*QNetwork, error) {
	if err := net.FoldAllBatchNorms(); err != nil {
		return nil, err
	}
	// Calibration pass: record the input range of every conv/dense layer
	// (and residual-internal convolutions) by monkey-patching via forward
	// replay. We walk layers manually to observe intermediate tensors.
	q := &QNetwork{Name: net.Name + "-int4", Mult: Exact{}}
	x := calib
	for _, l := range net.Layers {
		switch t := l.(type) {
		case *dnn.Conv2D:
			q.stages = append(q.stages, convStageFrom(t, x))
			x = t.Forward(x, false)
		case *dnn.Dense:
			q.stages = append(q.stages, denseStageFrom(t, x))
			x = t.Forward(x, false)
		case *dnn.Residual:
			stage, out := residualStageFrom(t, x)
			q.stages = append(q.stages, stage)
			x = out
		case *dnn.BatchNorm2D:
			// Folded: identity at inference; keep for shape fidelity.
			x = t.Forward(x, false)
		default:
			if !dnn.StatelessCapable(l) {
				q.serialOnly = true
			}
			q.stages = append(q.stages, floatStage{layer: l})
			x = l.Forward(x, false)
		}
	}
	return q, nil
}

func tensorRange(x *dnn.Tensor) (min, max float64) {
	min, max = x.Data[0], x.Data[0]
	for _, v := range x.Data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return
}

func convStageFrom(c *dnn.Conv2D, input *dnn.Tensor) *qConv {
	min, max := tensorRange(input)
	return &qConv{
		inC: c.InC, outC: c.OutC, k: c.K,
		act:  calibrate(min, max),
		w:    QuantizeWeights(c.Weight.W),
		bias: append([]float64(nil), c.Bias.W...),
	}
}

func denseStageFrom(d *dnn.Dense, input *dnn.Tensor) *qDense {
	min, max := tensorRange(input)
	return &qDense{
		in: d.In, out: d.Out,
		act:  calibrate(min, max),
		w:    QuantizeWeights(d.Weight.W),
		bias: append([]float64(nil), d.Bias.W...),
	}
}

func residualStageFrom(r *dnn.Residual, input *dnn.Tensor) (qStage, *dnn.Tensor) {
	// Calibrate conv1 on the block input, conv2 on the post-ReLU main path.
	s := &qResidual{relu1: r.Relu1, relu2: reluOf(r)}
	s.conv1 = convStageFrom(r.Conv1, input)
	main := r.Conv1.Forward(input, false)
	main = r.BN1.Forward(main, false)
	main = r.Relu1.Forward(main, false)
	s.conv2 = convStageFrom(r.Conv2, main)
	if r.Proj != nil {
		s.proj = convStageFrom(r.Proj, input)
	}
	out := r.Forward(input, false)
	return s, out
}

// reluOf returns the block's output activation.
func reluOf(r *dnn.Residual) dnn.Layer {
	return dnn.NewReLU(r.Name() + ".qrelu2")
}

// CountQuantMACs returns the multiplications a quantized forward pass
// performs per sample, skipping zero weights (which cause no discharge and
// no multiplier operation). Used to cross-check the Table II counts.
func (q *QNetwork) CountQuantMACs(sample *dnn.Tensor) (int64, error) {
	if sample.N != 1 {
		return 0, fmt.Errorf("quant: MAC counting expects a single sample, got %s", sample.Shape())
	}
	counter := &countingMultiplier{}
	saved := q.Mult
	q.Mult = counter
	q.Forward(sample)
	q.Mult = saved
	return counter.ops, nil
}

type countingMultiplier struct{ ops int64 }

func (c *countingMultiplier) Mul(a uint8, w int8) int32 {
	c.ops++
	return int32(a) * int32(w)
}
