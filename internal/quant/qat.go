package quant

import (
	"fmt"

	"optima/internal/dnn"
	"optima/internal/stats"
)

// QATConfig controls the quantization-aware fine-tuning pass — the paper's
// "retraining procedures ... to mitigate the impact of quantization".
type QATConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	Seed      uint64
}

// DefaultQATConfig returns a short fine-tune (2 epochs at a reduced rate).
func DefaultQATConfig() QATConfig {
	return QATConfig{Epochs: 2, BatchSize: 32, LR: 0.005, Momentum: 0.9, Seed: 7}
}

// QATFineTune fine-tunes the float network with weight fake-quantization
// and a straight-through estimator: each step the conv/dense weights are
// snapshotted, replaced by their quantize-dequantize images, gradients are
// computed through the quantized forward pass, and the update is applied to
// the retained full-precision weights. This nudges the float weights toward
// INT4-friendly values before post-training quantization. Inputs are
// checked as dnn.Network.Fit checks them: a non-positive BatchSize means 32.
func QATFineTune(net *dnn.Network, x *dnn.Tensor, labels []int, cfg QATConfig) error {
	if x.N != len(labels) {
		return fmt.Errorf("quant: %d samples but %d labels", x.N, len(labels))
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	weightParams := fakeQuantTargets(net)
	opt := dnn.NewSGD(cfg.LR, cfg.Momentum, 0)
	rng := stats.NewRNG(cfg.Seed)
	feat := x.FeatureLen()
	params := net.Params()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(x.N)
		for start := 0; start < x.N; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > x.N {
				end = x.N
			}
			bs := end - start
			batch := dnn.NewTensor(bs, x.C, x.H, x.W)
			blabels := make([]int, bs)
			for i := 0; i < bs; i++ {
				src := perm[start+i]
				copy(batch.Data[i*feat:(i+1)*feat], x.Data[src*feat:(src+1)*feat])
				blabels[i] = labels[src]
			}
			// Snapshot and fake-quantize the weights.
			snapshots := make([][]float64, len(weightParams))
			for i, p := range weightParams {
				snapshots[i] = append([]float64(nil), p.W...)
				wq := QuantizeWeights(p.W)
				for j := range p.W {
					p.W[j] = float64(wq.Codes[j]) * wq.Scale
				}
			}
			logits := net.Forward(batch, true)
			_, grad := dnn.CrossEntropyLoss(logits, blabels)
			net.Backward(grad)
			// Straight-through: restore float weights, apply the gradients
			// computed at the quantized point.
			for i, p := range weightParams {
				copy(p.W, snapshots[i])
			}
			opt.Step(params)
		}
	}
	return nil
}

// fakeQuantTargets returns the weight parameters of conv and dense layers
// (biases and batch-norm parameters stay in float).
func fakeQuantTargets(net *dnn.Network) []*dnn.Param {
	var out []*dnn.Param
	var walk func(l dnn.Layer)
	walk = func(l dnn.Layer) {
		switch t := l.(type) {
		case *dnn.Conv2D:
			out = append(out, t.Weight)
		case *dnn.Dense:
			out = append(out, t.Weight)
		case *dnn.Residual:
			walk(t.Conv1)
			walk(t.Conv2)
			if t.Proj != nil {
				walk(t.Proj)
			}
		}
	}
	for _, l := range net.Layers {
		walk(l)
	}
	return out
}
