package dnn

import (
	"fmt"
	"math"

	"optima/internal/stats"
)

// Layer is one differentiable network stage. Forward must retain whatever
// it needs for the subsequent Backward call (layers are stateful across one
// forward/backward pair, as in classic define-by-run frameworks).
type Layer interface {
	Name() string
	Forward(x *Tensor, train bool) *Tensor
	// Backward consumes dL/dout and returns dL/din, accumulating parameter
	// gradients internally.
	Backward(grad *Tensor) *Tensor
	Params() []*Param
}

// MACCounter is implemented by layers that perform multiplications; it
// returns the multiply count for one sample with the given input shape and
// the resulting output shape. Used for the paper's Table II "Number of
// Multiplications" column.
type MACCounter interface {
	MACs(c, h, w int) (macs int64, oc, oh, ow int)
}

// ---------------------------------------------------------------------------
// Conv2D
// ---------------------------------------------------------------------------

// Conv2D is a stride-1, same-padded 2-D convolution with bias.
type Conv2D struct {
	name      string
	InC, OutC int
	K         int    // kernel size (K×K), odd
	Weight    *Param // [OutC, InC, K, K]
	Bias      *Param // [OutC]
	lastIn    *Tensor
}

// NewConv2D builds a convolution layer with He-normal initialization.
func NewConv2D(name string, inC, outC, k int, rng *stats.RNG) *Conv2D {
	if k%2 == 0 {
		panic("dnn: conv kernel must be odd for same padding")
	}
	c := &Conv2D{name: name, InC: inC, OutC: outC, K: k}
	c.Weight = NewParam(name+".w", outC*inC*k*k)
	c.Bias = NewParam(name+".b", outC)
	std := math.Sqrt(2.0 / float64(inC*k*k))
	for i := range c.Weight.W {
		c.Weight.W[i] = rng.Gaussian(0, std)
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// MACs implements MACCounter.
func (c *Conv2D) MACs(ch, h, w int) (int64, int, int, int) {
	return int64(c.OutC) * int64(c.InC) * int64(c.K*c.K) * int64(h*w), c.OutC, h, w
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *Tensor, train bool) *Tensor {
	c.lastIn = x
	return c.infer(x)
}

// infer computes the convolution without recording training state, so it is
// safe for concurrent inference (see InferenceForward).
func (c *Conv2D) infer(x *Tensor) *Tensor {
	if x.C != c.InC {
		panic(fmt.Sprintf("dnn: %s expects %d channels, got %s", c.name, c.InC, x.Shape()))
	}
	out := NewTensor(x.N, c.OutC, x.H, x.W)
	convForward(out.Data, x.Data, c.Weight.W, c.Bias.W, x.N, c.InC, c.OutC, x.H, x.W, c.K)
	return out
}

// Backward implements Layer. Weight.G gathers grad·im2col(x)ᵀ per sample;
// dL/din is the forward convolution of grad with the flipped, transposed
// kernel, which keeps the direct loop's per-element summation order.
func (c *Conv2D) Backward(grad *Tensor) *Tensor {
	x := c.lastIn
	din := x.ZerosLike()
	p := x.H * x.W
	kk := c.K * c.K
	kd := c.InC * kk
	for i, g := range grad.Data {
		if g != 0 {
			c.Bias.G[(i/p)%c.OutC] += g
		}
	}
	buf := getScratch(kd*p + len(c.Weight.W))
	col, wt := (*buf)[:kd*p], (*buf)[kd*p:]
	for n := 0; n < x.N; n++ {
		Im2Col(col, x.Data[n*c.InC*p:(n+1)*c.InC*p], c.InC, x.H, x.W, c.K, 0)
		gemmAccTrans(c.Weight.G, grad.Data[n*c.OutC*p:(n+1)*c.OutC*p], col, c.OutC, kd, p)
	}
	// wt[ic][oc][a][b] = W[oc][ic][K−1−a][K−1−b].
	for oc := 0; oc < c.OutC; oc++ {
		for ic := 0; ic < c.InC; ic++ {
			src := c.Weight.W[(oc*c.InC+ic)*kk : (oc*c.InC+ic+1)*kk]
			dst := wt[(ic*c.OutC+oc)*kk : (ic*c.OutC+oc+1)*kk]
			for t := range dst {
				dst[t] = src[kk-1-t]
			}
		}
	}
	convForward(din.Data, grad.Data, wt, nil, x.N, c.OutC, c.InC, x.H, x.W, c.K)
	scratch.Put(buf)
	return din
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

// Dense is a fully connected layer over flattened inputs.
type Dense struct {
	name    string
	In, Out int
	Weight  *Param // [Out, In]
	Bias    *Param // [Out]
	lastIn  *Tensor
}

// NewDense builds a dense layer with He-normal initialization.
func NewDense(name string, in, out int, rng *stats.RNG) *Dense {
	d := &Dense{name: name, In: in, Out: out}
	d.Weight = NewParam(name+".w", in*out)
	d.Bias = NewParam(name+".b", out)
	std := math.Sqrt(2.0 / float64(in))
	for i := range d.Weight.W {
		d.Weight.W[i] = rng.Gaussian(0, std)
	}
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// MACs implements MACCounter.
func (d *Dense) MACs(c, h, w int) (int64, int, int, int) {
	return int64(d.In) * int64(d.Out), d.Out, 1, 1
}

// Forward implements Layer.
func (d *Dense) Forward(x *Tensor, train bool) *Tensor {
	d.lastIn = x
	return d.infer(x)
}

// infer computes the dense transform without recording training state, so
// it is safe for concurrent inference (see InferenceForward).
func (d *Dense) infer(x *Tensor) *Tensor {
	if x.FeatureLen() != d.In {
		panic(fmt.Sprintf("dnn: %s expects %d features, got %s", d.name, d.In, x.Shape()))
	}
	out := NewTensor(x.N, d.Out, 1, 1)
	for n := 0; n < x.N; n++ {
		xoff := n * d.In
		for o := 0; o < d.Out; o++ {
			sum := d.Bias.W[o]
			woff := o * d.In
			for i := 0; i < d.In; i++ {
				sum += x.Data[xoff+i] * d.Weight.W[woff+i]
			}
			out.Data[n*d.Out+o] = sum
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *Tensor) *Tensor {
	x := d.lastIn
	din := x.ZerosLike()
	for n := 0; n < x.N; n++ {
		xoff := n * d.In
		for o := 0; o < d.Out; o++ {
			g := grad.Data[n*d.Out+o]
			if g == 0 {
				continue
			}
			d.Bias.G[o] += g
			woff := o * d.In
			for i := 0; i < d.In; i++ {
				d.Weight.G[woff+i] += g * x.Data[xoff+i]
				din.Data[xoff+i] += g * d.Weight.W[woff+i]
			}
		}
	}
	return din
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

// ReLU is the rectified linear activation.
type ReLU struct {
	name string
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *Tensor, train bool) *Tensor {
	out := x.Clone()
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	for i, v := range out.Data {
		if v <= 0 {
			out.Data[i] = 0
			r.mask[i] = false
		} else {
			r.mask[i] = true
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *Tensor) *Tensor {
	din := grad.Clone()
	for i := range din.Data {
		if !r.mask[i] {
			din.Data[i] = 0
		}
	}
	return din
}

// ---------------------------------------------------------------------------
// MaxPool2
// ---------------------------------------------------------------------------

// MaxPool2 is a 2×2 stride-2 max pooling layer. Odd trailing rows/columns
// are dropped (floor semantics).
type MaxPool2 struct {
	name   string
	argmax []int
	inTpl  *Tensor
}

// NewMaxPool2 returns a 2×2 max-pool layer.
func NewMaxPool2(name string) *MaxPool2 { return &MaxPool2{name: name} }

// Name implements Layer.
func (p *MaxPool2) Name() string { return p.name }

// Params implements Layer.
func (p *MaxPool2) Params() []*Param { return nil }

// Forward implements Layer.
func (p *MaxPool2) Forward(x *Tensor, train bool) *Tensor {
	oh, ow := x.H/2, x.W/2
	out := NewTensor(x.N, x.C, oh, ow)
	p.inTpl = x
	if cap(p.argmax) < out.Len() {
		p.argmax = make([]int, out.Len())
	}
	p.argmax = p.argmax[:out.Len()]
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					best := math.Inf(-1)
					bestIdx := -1
					for di := 0; di < 2; di++ {
						for dj := 0; dj < 2; dj++ {
							idx := x.Idx(n, c, 2*i+di, 2*j+dj)
							if x.Data[idx] > best {
								best = x.Data[idx]
								bestIdx = idx
							}
						}
					}
					oIdx := out.Idx(n, c, i, j)
					out.Data[oIdx] = best
					p.argmax[oIdx] = bestIdx
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *MaxPool2) Backward(grad *Tensor) *Tensor {
	din := p.inTpl.ZerosLike()
	for oIdx, g := range grad.Data {
		din.Data[p.argmax[oIdx]] += g
	}
	return din
}

// ---------------------------------------------------------------------------
// GlobalAvgPool
// ---------------------------------------------------------------------------

// GlobalAvgPool averages each channel over its spatial extent.
type GlobalAvgPool struct {
	name  string
	inTpl *Tensor
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return p.name }

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(x *Tensor, train bool) *Tensor {
	p.inTpl = x
	out := NewTensor(x.N, x.C, 1, 1)
	inv := 1.0 / float64(x.H*x.W)
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			var s float64
			base := x.Idx(n, c, 0, 0)
			for i := 0; i < x.H*x.W; i++ {
				s += x.Data[base+i]
			}
			out.Data[out.Idx(n, c, 0, 0)] = s * inv
		}
	}
	return out
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(grad *Tensor) *Tensor {
	x := p.inTpl
	din := x.ZerosLike()
	inv := 1.0 / float64(x.H*x.W)
	for n := 0; n < x.N; n++ {
		for c := 0; c < x.C; c++ {
			g := grad.Data[grad.Idx(n, c, 0, 0)] * inv
			base := x.Idx(n, c, 0, 0)
			for i := 0; i < x.H*x.W; i++ {
				din.Data[base+i] += g
			}
		}
	}
	return din
}

// ---------------------------------------------------------------------------
// BatchNorm2D
// ---------------------------------------------------------------------------

// BatchNorm2D normalizes per channel over (N, H, W) with learnable scale
// and shift, tracking running statistics for inference.
type BatchNorm2D struct {
	name     string
	C        int
	Gamma    *Param
	Beta     *Param
	RunMean  []float64
	RunVar   []float64
	Momentum float64
	Eps      float64

	lastIn   *Tensor
	xhat     []float64
	batchStd []float64
}

// NewBatchNorm2D returns a batch-norm layer for c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		name: name, C: c,
		Gamma: NewParam(name+".gamma", c), Beta: NewParam(name+".beta", c),
		RunMean: make([]float64, c), RunVar: make([]float64, c),
		Momentum: 0.9, Eps: 1e-5,
	}
	for i := range bn.Gamma.W {
		bn.Gamma.W[i] = 1
		bn.RunVar[i] = 1
	}
	return bn
}

// Name implements Layer.
func (bn *BatchNorm2D) Name() string { return bn.name }

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Forward implements Layer.
func (bn *BatchNorm2D) Forward(x *Tensor, train bool) *Tensor {
	if x.C != bn.C {
		panic(fmt.Sprintf("dnn: %s expects %d channels, got %s", bn.name, bn.C, x.Shape()))
	}
	out := x.ZerosLike()
	spatial := x.H * x.W
	if train {
		bn.lastIn = x
		if cap(bn.xhat) < x.Len() {
			bn.xhat = make([]float64, x.Len())
		}
		bn.xhat = bn.xhat[:x.Len()]
		if bn.batchStd == nil {
			bn.batchStd = make([]float64, bn.C)
		}
	}
	for c := 0; c < bn.C; c++ {
		var mean, variance float64
		if train {
			cnt := float64(x.N * spatial)
			for n := 0; n < x.N; n++ {
				base := x.Idx(n, c, 0, 0)
				for i := 0; i < spatial; i++ {
					mean += x.Data[base+i]
				}
			}
			mean /= cnt
			for n := 0; n < x.N; n++ {
				base := x.Idx(n, c, 0, 0)
				for i := 0; i < spatial; i++ {
					d := x.Data[base+i] - mean
					variance += d * d
				}
			}
			variance /= cnt
			bn.RunMean[c] = bn.Momentum*bn.RunMean[c] + (1-bn.Momentum)*mean
			bn.RunVar[c] = bn.Momentum*bn.RunVar[c] + (1-bn.Momentum)*variance
		} else {
			mean, variance = bn.RunMean[c], bn.RunVar[c]
		}
		std := math.Sqrt(variance + bn.Eps)
		if train {
			bn.batchStd[c] = std
		}
		g, b := bn.Gamma.W[c], bn.Beta.W[c]
		for n := 0; n < x.N; n++ {
			base := x.Idx(n, c, 0, 0)
			for i := 0; i < spatial; i++ {
				xh := (x.Data[base+i] - mean) / std
				if train {
					bn.xhat[base+i] = xh
				}
				out.Data[base+i] = g*xh + b
			}
		}
	}
	return out
}

// Backward implements Layer.
func (bn *BatchNorm2D) Backward(grad *Tensor) *Tensor {
	x := bn.lastIn
	din := x.ZerosLike()
	spatial := x.H * x.W
	cnt := float64(x.N * spatial)
	for c := 0; c < bn.C; c++ {
		var sumG, sumGX float64
		for n := 0; n < x.N; n++ {
			base := x.Idx(n, c, 0, 0)
			for i := 0; i < spatial; i++ {
				g := grad.Data[base+i]
				sumG += g
				sumGX += g * bn.xhat[base+i]
			}
		}
		bn.Beta.G[c] += sumG
		bn.Gamma.G[c] += sumGX
		gamma := bn.Gamma.W[c]
		std := bn.batchStd[c]
		for n := 0; n < x.N; n++ {
			base := x.Idx(n, c, 0, 0)
			for i := 0; i < spatial; i++ {
				g := grad.Data[base+i]
				xh := bn.xhat[base+i]
				din.Data[base+i] += gamma / std * (g - sumG/cnt - xh*sumGX/cnt)
			}
		}
	}
	return din
}

// FoldInto folds the batch-norm's inference transform into the preceding
// convolution's weights and bias, leaving the batch-norm an identity. This
// is the standard preparation step before post-training quantization.
func (bn *BatchNorm2D) FoldInto(conv *Conv2D) error {
	if conv.OutC != bn.C {
		return fmt.Errorf("dnn: cannot fold %s (%d ch) into %s (%d out)", bn.name, bn.C, conv.name, conv.OutC)
	}
	per := conv.InC * conv.K * conv.K
	for oc := 0; oc < bn.C; oc++ {
		std := math.Sqrt(bn.RunVar[oc] + bn.Eps)
		scale := bn.Gamma.W[oc] / std
		for i := 0; i < per; i++ {
			conv.Weight.W[oc*per+i] *= scale
		}
		conv.Bias.W[oc] = (conv.Bias.W[oc]-bn.RunMean[oc])*scale + bn.Beta.W[oc]
		bn.Gamma.W[oc] = 1
		bn.Beta.W[oc] = 0
		bn.RunMean[oc] = 0
		bn.RunVar[oc] = 1 - bn.Eps
	}
	return nil
}
