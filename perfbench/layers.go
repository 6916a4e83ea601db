package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fedfteds/internal/models"
	"fedfteds/internal/nn"
	"fedfteds/internal/opt"
	"fedfteds/internal/tensor"
)

// trainBatch is the local-training batch size every engine uses (core's
// default), and the batch size of the per-layer timings.
const trainBatch = 32

// timeCall returns the median per-call time of f in µs over a few blocks of
// calls, after a warm-up.
func timeCall(f func()) float64 {
	for i := 0; i < 20; i++ {
		f()
	}
	// Size a block to about a millisecond.
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) > time.Millisecond || n >= 1<<16 {
			break
		}
		n *= 2
	}
	blocks := make([]float64, 7)
	for b := range blocks {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		blocks[b] = float64(time.Since(t0)) / 1e3 / float64(n)
	}
	sort.Float64s(blocks)
	return blocks[len(blocks)/2]
}

func randn(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		t.Data()[i] = float32(rng.NormFloat64())
	}
	return t
}

// layerTimes times the public Forward/Backward calls of every dense,
// batch-norm and ReLU layer of m at batch 32, summed per layer kind (µs per
// pass through the whole model), plus the loss, one SGD step over all
// parameters and a whole-model evaluation forward pass. It works on a clone
// with every group trainable, so m is untouched.
func layerTimes(m *models.Model) (map[string]float64, error) {
	c, err := m.Clone()
	if err != nil {
		return nil, err
	}
	if err := c.SetFinetunePart(models.FinetuneFull); err != nil {
		return nil, err
	}
	spec := c.Spec()
	if len(spec.InputShape) != 1 {
		return nil, fmt.Errorf("per-layer timings need an MLP, got input shape %v", spec.InputShape)
	}
	rng := rand.New(rand.NewSource(1))
	out := map[string]float64{}
	width := spec.InputShape[0]
	for _, g := range models.GroupNames() {
		seq, err := c.Group(g)
		if err != nil {
			return nil, err
		}
		seq.VisitLayers(func(l nn.Layer) {
			var kind string
			in, outW := width, width
			switch v := l.(type) {
			case *nn.Dense:
				kind, in, outW = "dense", v.InFeatures(), v.OutFeatures()
			case *nn.BatchNorm:
				kind = "batchnorm"
			case *nn.ReLU:
				kind = "relu"
			default:
				return
			}
			x, dy := randn(rng, trainBatch, in), randn(rng, trainBatch, outW)
			out["nn."+kind+".fwd_us"] += timeCall(func() { l.Forward(x, true) })
			l.Forward(x, true)
			out["nn."+kind+".bwd_us"] += timeCall(func() { l.Backward(dy, true) })
			width = outW
		})
	}

	logits := randn(rng, trainBatch, spec.NumClasses)
	labels := make([]int, trainBatch)
	for i := range labels {
		labels[i] = rng.Intn(spec.NumClasses)
	}
	var ls nn.LossScratch
	var lossErr error
	out["nn.loss_us"] = timeCall(func() {
		if _, _, err := (nn.SoftmaxCrossEntropy{}).LossInto(&ls, logits, labels); err != nil {
			lossErr = err
		}
	})
	if lossErr != nil {
		return nil, lossErr
	}
	// Zeroing the gradients the backward timings accumulated keeps the
	// timed steps from driving the weights to overflow.
	c.ZeroGrads()
	sgd, err := opt.NewSGD(opt.SGDConfig{LR: clientLR, Momentum: clientMomentum}, c.TrainableParams())
	if err != nil {
		return nil, err
	}
	out["opt.sgd_step_us"] = timeCall(sgd.Step)
	eval, err := m.Clone()
	if err != nil {
		return nil, err
	}
	x := randn(rng, trainBatch, spec.InputShape[0])
	out["models.eval_forward_us"] = timeCall(func() { eval.Forward(x, false) })
	return out, nil
}
