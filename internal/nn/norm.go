package nn

import (
	"fmt"
	"math"

	"fedfteds/internal/tensor"
)

// BatchNorm normalizes activations per channel. It accepts rank-2 inputs
// (N, C), normalizing over the batch, and rank-4 inputs (N, C, H, W),
// normalizing over batch and spatial dimensions.
//
// In training mode (and not frozen) it normalizes with batch statistics and
// maintains exponential running statistics; in evaluation mode or when frozen
// it normalizes with the running statistics. Running statistics are exposed
// as Buffers so they travel with the model between server and clients.
type BatchNorm struct {
	base
	channels int
	eps      float64
	momentum float64

	gamma *Param
	beta  *Param

	runMean *tensor.Tensor
	runVar  *tensor.Tensor

	// Cached state from the last training-mode forward.
	xhat    *tensor.Tensor
	invStd  []float64
	inShape []int
	// evalBackward marks that the last training forward normalized with
	// running statistics (degenerate batch of one): Backward then uses the
	// decoupled gradient dx = dy·γ·invStd instead of the batch-stat formula.
	evalBackward bool

	// Cached workspaces, reused across steps (see the package aliasing rule).
	y, dx          *tensor.Tensor
	mean, variance []float64
	dgamma, dbeta  []float64
	coef           []float64 // per-channel γ·invStd/m of the batch-stat dx
}

var _ Layer = (*BatchNorm)(nil)

// NewBatchNorm constructs a batch-norm layer over the given channel count
// with scale initialized to one, shift to zero, eps 1e-5 and running-stat
// momentum 0.1.
func NewBatchNorm(name string, channels int) (*BatchNorm, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("nn: batchnorm %q: invalid channels %d", name, channels)
	}
	g := tensor.New(channels)
	g.Fill(1)
	rv := tensor.New(channels)
	rv.Fill(1)
	return &BatchNorm{
		base:     base{name: name},
		channels: channels,
		eps:      1e-5,
		momentum: 0.1,
		gamma:    newParam("gamma", g, true),
		beta:     newParam("beta", tensor.New(channels), true),
		runMean:  tensor.New(channels),
		runVar:   rv,
	}, nil
}

// Params implements Layer.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.gamma, bn.beta} }

// Buffers implements Layer, exposing the running mean and variance.
func (bn *BatchNorm) Buffers() []*tensor.Tensor {
	return []*tensor.Tensor{bn.runMean, bn.runVar}
}

// geometry returns (n, spatial): the input has n samples of channels×spatial
// values; spatial is 1 for rank-2 inputs.
func (bn *BatchNorm) geometry(x *tensor.Tensor) (n, spatial int) {
	switch x.Rank() {
	case 2:
		if x.Dim(1) != bn.channels {
			panic(shapeErr("batchnorm "+bn.name, bn.channels, x.Shape()))
		}
		return x.Dim(0), 1
	case 4:
		if x.Dim(1) != bn.channels {
			panic(shapeErr("batchnorm "+bn.name, bn.channels, x.Shape()))
		}
		return x.Dim(0), x.Dim(2) * x.Dim(3)
	default:
		panic(shapeErr("batchnorm "+bn.name, "rank 2 or 4", x.Shape()))
	}
}

// ensureChannelBufs sizes the per-channel float64 scratch slices once, out
// of a single allocation.
func (bn *BatchNorm) ensureChannelBufs() {
	if bn.mean != nil {
		return
	}
	c := bn.channels
	buf := make([]float64, 6*c)
	next := func() []float64 {
		s := buf[:c:c]
		buf = buf[c:]
		return s
	}
	bn.mean, bn.variance, bn.invStd = next(), next(), next()
	bn.dgamma, bn.dbeta, bn.coef = next(), next(), next()
}

// Forward implements Layer.
//
// Rank-2 inputs, where every value of a sample is one channel, are walked a
// sample row at a time; rank-4 inputs a (sample, channel) plane at a time.
// Both visit each channel's values in the same sample order, so the float64
// per-channel sums, and everything derived from them, are bit-identical
// between the two layouts.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, spatial := bn.geometry(x)
	cc := bn.channels
	rows := x.Rank() == 2
	bn.ensureChannelBufs()
	bn.inShape = captureShape(bn.inShape, x)
	bn.y = tensor.Ensure(bn.y, bn.inShape...)
	xd, yd := x.Data(), bn.y.Data()
	gd, bd := bn.gamma.W.Data(), bn.beta.W.Data()
	useBatchStats := train && !bn.frozen && n*spatial > 1

	if useBatchStats {
		mean, variance := bn.mean, bn.variance
		clear(mean)
		clear(variance)
		// Two-pass statistics, accumulated per (sample, channel) run in
		// float64, matching the original closure-based implementation term
		// for term. A rank-2 run is a single value v, and 0 + v == v.
		// Row walks reslice every operand to [:cc] so the compiler can drop
		// the per-element bounds checks.
		if rows {
			mean := mean[:cc]
			for off := 0; off < len(xd); off += cc {
				for ch, v := range xd[off:][:cc] {
					mean[ch] += float64(v)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				for ch := 0; ch < cc; ch++ {
					off := (i*cc + ch) * spatial
					var s float64
					for _, v := range xd[off : off+spatial] {
						s += float64(v)
					}
					mean[ch] += s
				}
			}
		}
		m := float64(n * spatial)
		for c := range mean {
			mean[c] /= m
		}
		if rows {
			mean, variance := mean[:cc], variance[:cc]
			for off := 0; off < len(xd); off += cc {
				for ch, v := range xd[off:][:cc] {
					d := float64(v) - mean[ch]
					variance[ch] += d * d
				}
			}
		} else {
			for i := 0; i < n; i++ {
				for ch := 0; ch < cc; ch++ {
					off := (i*cc + ch) * spatial
					var s float64
					for _, v := range xd[off : off+spatial] {
						d := float64(v) - mean[ch]
						s += d * d
					}
					variance[ch] += s
				}
			}
		}
		for c := range variance {
			variance[c] /= m
		}
		// Update running statistics.
		rm, rv := bn.runMean.Data(), bn.runVar.Data()
		for c := 0; c < cc; c++ {
			rm[c] = float32((1-bn.momentum)*float64(rm[c]) + bn.momentum*mean[c])
			rv[c] = float32((1-bn.momentum)*float64(rv[c]) + bn.momentum*variance[c])
		}
		invStd := bn.invStd
		for c := range invStd {
			invStd[c] = 1.0 / math.Sqrt(variance[c]+bn.eps)
		}
		bn.xhat = tensor.Ensure(bn.xhat, bn.inShape...)
		xh := bn.xhat.Data()
		if rows {
			mean, invStd, gd, bd := mean[:cc], invStd[:cc], gd[:cc], bd[:cc]
			for off := 0; off < len(xd); off += cc {
				xr, hr, yr := xd[off:][:cc], xh[off:][:cc], yd[off:][:cc]
				for ch, v := range xr {
					h := float32((float64(v) - mean[ch]) * invStd[ch])
					hr[ch] = h
					yr[ch] = gd[ch]*h + bd[ch]
				}
			}
		} else {
			for i := 0; i < n; i++ {
				for ch := 0; ch < cc; ch++ {
					off := (i*cc + ch) * spatial
					mu, is := mean[ch], invStd[ch]
					g, b := gd[ch], bd[ch]
					for s := off; s < off+spatial; s++ {
						h := float32((float64(xd[s]) - mu) * is)
						xh[s] = h
						yd[s] = g*h + b
					}
				}
			}
		}
		bn.evalBackward = false
		return bn.y
	}

	// Evaluation / frozen path: use running statistics. A training-mode call
	// lands here only for a degenerate batch (one value per channel), where
	// batch statistics are undefined; it keeps a cache so Backward works.
	invStd := bn.invStd
	rv := bn.runVar.Data()
	for c := range invStd {
		// Aggregation noise (lossy uplink codecs, federated averaging of
		// freshly restored buffers) can push a running variance slightly
		// negative; clamping keeps invStd finite instead of poisoning every
		// downstream activation with NaN. Locally computed variances are
		// non-negative, so this never changes a lossless run.
		invStd[c] = 1.0 / math.Sqrt(math.Max(float64(rv[c]), 0)+bn.eps)
	}
	trainDegenerate := train && !bn.frozen
	rm := bn.runMean.Data()
	if rows {
		rm, invStd, gd, bd := rm[:cc], invStd[:cc], gd[:cc], bd[:cc]
		for off := 0; off < len(xd); off += cc {
			xr, yr := xd[off:][:cc], yd[off:][:cc]
			for ch, v := range xr {
				xh := (float64(v) - float64(rm[ch])) * invStd[ch]
				yr[ch] = float32(float64(gd[ch])*xh + float64(bd[ch]))
			}
		}
	} else {
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				mu, is := float64(rm[ch]), invStd[ch]
				g, b := float64(gd[ch]), float64(bd[ch])
				for s := off; s < off+spatial; s++ {
					xh := (float64(xd[s]) - mu) * is
					yd[s] = float32(g*xh + b)
				}
			}
		}
	}
	if trainDegenerate {
		// One value per channel: the per-plane loop is also the row walk.
		bn.xhat = tensor.Ensure(bn.xhat, bn.inShape...)
		xh := bn.xhat.Data()
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				mu, is := float64(rm[ch]), invStd[ch]
				for s := off; s < off+spatial; s++ {
					xh[s] = float32((float64(xd[s]) - mu) * is)
				}
			}
		}
	} else {
		bn.xhat = nil
	}
	bn.evalBackward = true
	return bn.y
}

// paramGrads reduces dγ_c = Σ dy·x̂ and dβ_c = Σ dy over batch and spatial
// positions into bn.dgamma and bn.dbeta, in sample order per channel, and
// unless the layer is frozen adds them to the parameter gradients.
func (bn *BatchNorm) paramGrads(dyd []float32, rows bool, n, spatial int) {
	cc := bn.channels
	dgamma, dbeta := bn.dgamma, bn.dbeta
	clear(dgamma)
	clear(dbeta)
	xh := bn.xhat.Data()
	if rows {
		dgamma, dbeta := dgamma[:cc], dbeta[:cc]
		for off := 0; off < len(dyd); off += cc {
			dyr, hr := dyd[off:][:cc], xh[off:][:cc]
			for ch, v := range dyr {
				dgamma[ch] += float64(v) * float64(hr[ch])
				dbeta[ch] += float64(v)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				for s := off; s < off+spatial; s++ {
					dgamma[ch] += float64(dyd[s]) * float64(xh[s])
					dbeta[ch] += float64(dyd[s])
				}
			}
		}
	}
	if bn.frozen {
		return
	}
	gg, bg := bn.gamma.G.Data(), bn.beta.G.Data()
	for c := 0; c < cc; c++ {
		gg[c] += float32(dgamma[c])
		bg[c] += float32(dbeta[c])
	}
}

// Backward implements Layer.
func (bn *BatchNorm) Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	n, spatial := bn.geometry(dy)
	cc := bn.channels
	rows := dy.Rank() == 2
	m := float64(n * spatial)
	dyd := dy.Data()
	gd := bn.gamma.W.Data()

	if bn.xhat == nil || bn.evalBackward {
		if bn.invStd == nil {
			panic("nn: batchnorm " + bn.name + ": Backward without Forward")
		}
		// Running-statistics normalization: the statistics do not depend on
		// the batch, so dx decouples to dy·γ·invStd; dγ/dβ accumulate from
		// the cached xhat when the layer is trainable.
		if !bn.frozen && bn.xhat != nil {
			bn.paramGrads(dyd, rows, n, spatial)
		}
		if !needDx {
			return nil
		}
		bn.dx = tensor.Ensure(bn.dx, bn.inShape...)
		dxd := bn.dx.Data()
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				g, is := float64(gd[ch]), bn.invStd[ch]
				for s := off; s < off+spatial; s++ {
					// Left-to-right as in the original formula dy·γ·invStd.
					dxd[s] = float32(float64(dyd[s]) * g * is)
				}
			}
		}
		return bn.dx
	}

	bn.paramGrads(dyd, rows, n, spatial)
	if !needDx {
		return nil
	}
	// dx = gamma*invStd/m * (m*dy - dbeta - xhat*dgamma)
	coef, dgamma, dbeta := bn.coef, bn.dgamma, bn.dbeta
	for c := range coef {
		coef[c] = float64(gd[c]) * bn.invStd[c] / m
	}
	bn.dx = tensor.Ensure(bn.dx, bn.inShape...)
	dxd, xh := bn.dx.Data(), bn.xhat.Data()
	if rows {
		coef, dgamma, dbeta := coef[:cc], dgamma[:cc], dbeta[:cc]
		for off := 0; off < len(dyd); off += cc {
			dyr := dyd[off:][:cc]
			hr, dxr := xh[off:][:cc], dxd[off:][:cc]
			for ch, v := range dyr {
				dxr[ch] = float32(coef[ch] * (m*float64(v) - dbeta[ch] - float64(hr[ch])*dgamma[ch]))
			}
		}
	} else {
		for i := 0; i < n; i++ {
			for ch := 0; ch < cc; ch++ {
				off := (i*cc + ch) * spatial
				g, dg, db := coef[ch], dgamma[ch], dbeta[ch]
				for s := off; s < off+spatial; s++ {
					dxd[s] = float32(g * (m*float64(dyd[s]) - db - float64(xh[s])*dg))
				}
			}
		}
	}
	return bn.dx
}

// OutputShape implements Layer.
func (bn *BatchNorm) OutputShape(in []int) ([]int, error) {
	if len(in) != 1 && len(in) != 3 {
		return nil, fmt.Errorf("nn: batchnorm %q: per-sample shape %v", bn.name, in)
	}
	if in[0] != bn.channels {
		return nil, fmt.Errorf("nn: batchnorm %q: channels %d, want %d", bn.name, in[0], bn.channels)
	}
	return append([]int(nil), in...), nil
}

// FLOPsPerSample implements Layer.
func (bn *BatchNorm) FLOPsPerSample(in []int) int64 {
	return 4 * int64(tensor.Volume(in))
}
