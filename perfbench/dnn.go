package main

import (
	"fmt"
	"sort"

	"optima/internal/core"
	"optima/internal/dataset"
	"optima/internal/device"
	"optima/internal/dnn"
	"optima/internal/dse"
	"optima/internal/engine"
	"optima/internal/mult"
	"optima/internal/obs"
	"optima/internal/quant"
	"optima/internal/stats"
)

// The dnn op trains on a seeded slice of the SynthImageNet training set and
// scores a seeded slice of its test set.
const (
	dnnModel    = "VGG16S"
	dnnTrainN   = 320
	dnnTestN    = 128
	dnnCalibN   = 64
	dnnTopK     = 5
	dnnTrainEps = 1
)

// dnnWL is one model of the paper's application analysis per op: train,
// score in float, fine-tune for quantization, quantize, and score with the
// in-memory multiplier at the fom corner.
type dnnWL struct {
	model        *core.Model
	fom          mult.Config
	classes      int
	trainX       *dnn.Tensor
	trainY       []int
	testX, calib *dnn.Tensor
	testY        []int
	seed         uint64
}

// setupDNN calibrates the model, selects the fom corner on the behavioral
// grid sweep, and generates the data slices.
func setupDNN(seed uint64, _ string, _ *obs.Recorder) (workload, error) {
	_, model, err := calibrated()
	if err != nil {
		return nil, err
	}
	sweep, err := dse.SweepWith(engine.New(engine.Behavioral{Model: model}, workers), dse.DefaultGrid(), device.Nominal())
	if err != nil {
		return nil, err
	}
	sel, err := dse.Select(sweep)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Generate(dataset.SynthImageNetConfig())
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	trainX, trainY := seededSlice(ds.Train, ds.TrainY, dnnTrainN, rng)
	testX, testY := seededSlice(ds.Test, ds.TestY, dnnTestN, rng)
	calib := dnn.NewTensor(dnnCalibN, trainX.C, trainX.H, trainX.W)
	copy(calib.Data, trainX.Data[:dnnCalibN*trainX.FeatureLen()])
	return &dnnWL{
		model: model, fom: sel.FOM.Config, classes: ds.Classes,
		trainX: trainX, trainY: trainY, testX: testX, testY: testY, calib: calib,
		seed: seed,
	}, nil
}

// seededSlice draws n samples without replacement, kept in dataset order.
func seededSlice(x *dnn.Tensor, y []int, n int, rng *stats.RNG) (*dnn.Tensor, []int) {
	idx := rng.Perm(x.N)[:n]
	sort.Ints(idx)
	feat := x.FeatureLen()
	out := dnn.NewTensor(n, x.C, x.H, x.W)
	labels := make([]int, n)
	for i, src := range idx {
		copy(out.Data[i*feat:(i+1)*feat], x.Data[src*feat:(src+1)*feat])
		labels[i] = y[src]
	}
	return out, labels
}

func (d *dnnWL) close() error { return nil }

func (d *dnnWL) op(env opEnv) (opResult, error) {
	net, err := dnn.NewZooModel(dnnModel, dataset.Channels, dataset.Height, dataset.Width, d.classes, stats.NewRNG(d.seed))
	if err != nil {
		return opResult{}, err
	}
	cfg := dnn.DefaultTrainConfig()
	cfg.Epochs = dnnTrainEps
	cfg.Seed = d.seed
	sp := env.span("dnn.fit")
	loss, err := net.Fit(d.trainX, d.trainY, cfg)
	sp.End()
	if err != nil {
		return opResult{}, err
	}

	net.EvalWorkers = workers
	sp = env.span("dnn.infer")
	f1, f5 := net.TopKAccuracy(d.testX, d.testY, dnnTopK)
	sp.End()

	qat := quant.DefaultQATConfig()
	qat.Epochs = dnnTrainEps
	qat.Seed = d.seed
	sp = env.span("quant.qat")
	err = quant.QATFineTune(net, d.trainX, d.trainY, qat)
	sp.End()
	if err != nil {
		return opResult{}, err
	}
	sp = env.span("quant.quantize")
	qnet, err := quant.Quantize(net, d.calib)
	sp.End()
	if err != nil {
		return opResult{}, err
	}

	sp = env.span("mult.lut")
	b, err := mult.NewBehavioral(d.model, d.fom, device.Nominal())
	var im *quant.InMemory
	if err == nil {
		im, err = quant.NewInMemory(b, nil)
	}
	sp.End()
	if err != nil {
		return opResult{}, err
	}
	qnet.Mult = im
	qnet.Workers = workers
	sp = env.span("quant.infer")
	q1, q5 := qnet.TopKAccuracy(d.testX, d.testY, dnnTopK)
	sp.End()
	if im.Ops() == 0 {
		return opResult{}, fmt.Errorf("in-memory multiplier ran no operations")
	}

	digest, err := digestOf(struct {
		Loss             float64
		Float, Quantized [2]float64
		MultOps          int64
	}{loss, [2]float64{f1, f5}, [2]float64{q1, q5}, im.Ops()})
	if err != nil {
		return opResult{}, err
	}
	return opResult{
		digest: digest,
		rmsMV:  d.model.Report.VDDRMSVolts * 1e3,
		counts: map[string]float64{
			"quant.mult_ops": float64(im.Ops()),
			"dnn.macs":       float64(net.MACsPerInference() * int64(d.testX.N)),
		},
	}, nil
}
