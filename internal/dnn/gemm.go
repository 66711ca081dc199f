package dnn

import "sync"

// Convolution kernels: im2col plus two register-blocked GEMMs. Every float
// result is summed in exactly the order of the direct 7-deep loops these
// replace, so trained weights and accuracies stay bit-for-bit identical:
//
//   - forward: out[oc][p] = bias[oc] + Σ_k W[oc][k]·col[k][p], with k over
//     (ic, kh, kw) in order and never split. A padded tap contributes
//     W·0 = ±0, which leaves a sum's bits unchanged: a running sum is −0
//     only when the bias is.
//   - weight gradient: G[oc][k] += grad[oc][p]·col[k][p], accumulated
//     straight into G over (n, oh, ow) in order. The terms the direct loop
//     skipped (zero grads, padded taps) are ±0 here, and G, which starts
//     at +0, never becomes −0.
//   - input gradient: a forward convolution of grad with the flipped,
//     transposed kernel, which visits each input element's terms in the
//     direct loop's (oc, oh, ow) order.

// Im2Col lays the K×K same-padded patches of one C×H×W image out as a
// (C·K·K)×(H·W) row-major matrix in dst: row (c, kh, kw), column (oh, ow)
// holds src[c][oh+kh−K/2][ow+kw−K/2], or pad where that lies outside the
// image. dst must hold C·K·K·H·W elements.
func Im2Col[T any](dst, src []T, c, h, w, k int, pad T) {
	half := k / 2
	p := h * w
	r := 0
	for ch := 0; ch < c; ch++ {
		plane := src[ch*p : (ch+1)*p]
		for kh := 0; kh < k; kh++ {
			for kw := 0; kw < k; kw++ {
				row := dst[r*p : (r+1)*p]
				r++
				// Columns ow in [lo, hi) read in-bounds input columns.
				dx := kw - half
				lo, hi := max(0, -dx), min(w, w-dx)
				for oh := 0; oh < h; oh++ {
					seg := row[oh*w : (oh+1)*w]
					ih := oh + kh - half
					if ih < 0 || ih >= h || lo >= hi {
						for i := range seg {
							seg[i] = pad
						}
						continue
					}
					for i := 0; i < lo; i++ {
						seg[i] = pad
					}
					copy(seg[lo:hi], plane[ih*w+lo+dx:ih*w+hi+dx])
					for i := hi; i < w; i++ {
						seg[i] = pad
					}
				}
			}
		}
	}
}

// convForward writes the same-padded stride-1 convolution of n images
// (inC×h×w each, in src) with weights w [outC][inC][k][k] and an optional
// bias into out.
func convForward(out, src, w, bias []float64, n, inC, outC, h, wd, k int) {
	p := h * wd
	kd := inC * k * k
	col := getScratch(kd * p)
	for s := 0; s < n; s++ {
		Im2Col(*col, src[s*inC*p:(s+1)*inC*p], inC, h, wd, k, 0)
		gemmBias(out[s*outC*p:(s+1)*outC*p], w, *col, bias, outC, kd, p)
	}
	scratch.Put(col)
}

// scratch pools the kernels' buffers. Each call takes its own buffer, so
// concurrent Infer calls never share one, while a training loop reuses
// the same few buffers instead of allocating per layer and batch.
var scratch sync.Pool

// getScratch returns a pooled buffer of n elements with unspecified
// contents; hand it back with scratch.Put.
func getScratch(n int) *[]float64 {
	if b, ok := scratch.Get().(*[]float64); ok && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]float64, n)
	return &b
}

// gemmBias computes out[i][j] = bias[i] + Σ_k a[i][k]·b[k][j] for an m×kd
// matrix a and a kd×n matrix b, summing each output from its bias through
// k = 0, 1, … in order. A nil bias starts every sum at +0. The microkernel
// holds four outputs of one row in registers while it streams a row of a.
func gemmBias(out, a, b, bias []float64, m, kd, n int) {
	for i := 0; i < m; i++ {
		ai := a[i*kd : (i+1)*kd]
		oi := out[i*n : (i+1)*n]
		var s0 float64
		if bias != nil {
			s0 = bias[i]
		}
		j := 0
		for ; j+4 <= n; j += 4 {
			s1, s2, s3, s4 := s0, s0, s0, s0
			off := j
			for _, w := range ai {
				c := b[off : off+4 : off+4]
				off += n
				s1 += w * c[0]
				s2 += w * c[1]
				s3 += w * c[2]
				s4 += w * c[3]
			}
			o := oi[j : j+4 : j+4]
			o[0], o[1], o[2], o[3] = s1, s2, s3, s4
		}
		for ; j < n; j++ {
			s := s0
			off := j
			for _, w := range ai {
				s += w * b[off]
				off += n
			}
			oi[j] = s
		}
	}
}

// gemmAccTrans accumulates g·cᵀ into acc: acc[i][k] += g[i][j]·c[k][j] for
// an m×n matrix g and a kd×n matrix c, adding the terms of each element in
// j order straight onto its current value. The microkernel updates four
// elements of one row of acc per pass over a row of g.
func gemmAccTrans(acc, g, c []float64, m, kd, n int) {
	for i := 0; i < m; i++ {
		gi := g[i*n : (i+1)*n]
		ri := acc[i*kd : (i+1)*kd]
		k := 0
		for ; k+4 <= kd; k += 4 {
			c0 := c[k*n : (k+1)*n][:len(gi)]
			c1 := c[(k+1)*n : (k+2)*n][:len(gi)]
			c2 := c[(k+2)*n : (k+3)*n][:len(gi)]
			c3 := c[(k+3)*n : (k+4)*n][:len(gi)]
			r := ri[k : k+4 : k+4]
			s0, s1, s2, s3 := r[0], r[1], r[2], r[3]
			for j, x := range gi {
				s0 += x * c0[j]
				s1 += x * c1[j]
				s2 += x * c2[j]
				s3 += x * c3[j]
			}
			r[0], r[1], r[2], r[3] = s0, s1, s2, s3
		}
		for ; k < kd; k++ {
			ck := c[k*n : (k+1)*n][:len(gi)]
			s := ri[k]
			for j, x := range gi {
				s += x * ck[j]
			}
			ri[k] = s
		}
	}
}
