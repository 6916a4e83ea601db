package nn

import (
	"math"

	"fedfteds/internal/tensor"
)

// ReLU is the rectified linear activation, applied element-wise.
//
// Its loops are branchless over the float32 bit patterns. A training forward
// keeps x iff x > 0 and writes +0 otherwise (so -0 and NaN become +0); an
// evaluation forward zeroes x iff x < 0 (so -0 and NaN pass through);
// Backward passes dy's bits, NaN and -0 included, where the training forward
// kept x and +0 elsewhere.
type ReLU struct {
	base
	// mask is all ones where the last training forward kept its input and
	// zero elsewhere; an evaluation forward empties it.
	mask []uint32

	// Cached workspaces, reused across steps (see the package aliasing rule).
	y, dx *tensor.Tensor
	shape []int
}

var _ Layer = (*ReLU)(nil)

// NewReLU constructs a ReLU activation layer.
func NewReLU(name string) *ReLU {
	return &ReLU{base: base{name: name}}
}

// posSpan counts the bit patterns of positive float32 values: 0x00000001 (the
// smallest subnormal) through 0x7f800000 (+Inf). Negative values are the same
// patterns with the sign bit set; zeros and NaNs lie outside both ranges.
const posSpan = 0x7f800000

// inRange returns all ones if b-lo, modulo 2³², is below posSpan, and zero
// otherwise, without a branch: the 64-bit difference is negative exactly
// then. inRange(b, 1) selects x > 0 and inRange(b, 0x80000001) selects x < 0.
func inRange(b, lo uint32) uint32 {
	return uint32(int64(uint64(b-lo)-posSpan) >> 63)
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.shape = captureShape(r.shape, x)
	r.y = tensor.Ensure(r.y, r.shape...)
	xd, yd := x.Data(), r.y.Data()
	yd = yd[:len(xd)]
	if !train {
		r.mask = r.mask[:0]
		for i, v := range xd {
			b := math.Float32bits(v)
			yd[i] = math.Float32frombits(b &^ inRange(b, 0x80000001))
		}
		return r.y
	}
	if cap(r.mask) < len(xd) {
		r.mask = make([]uint32, len(xd))
	}
	mask := r.mask[:len(xd)]
	r.mask = mask
	for i, v := range xd {
		b := math.Float32bits(v)
		m := inRange(b, 1)
		mask[i] = m
		yd[i] = math.Float32frombits(b & m)
	}
	return r.y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Tensor, needDx bool) *tensor.Tensor {
	if !needDx {
		return nil
	}
	if len(r.mask) != dy.Len() {
		panic("nn: relu " + r.name + ": Backward without train Forward")
	}
	r.dx = tensor.Ensure(r.dx, r.shape...)
	dyd, dxd, mask := dy.Data(), r.dx.Data(), r.mask
	dxd, mask = dxd[:len(dyd)], mask[:len(dyd)]
	for i, v := range dyd {
		dxd[i] = math.Float32frombits(math.Float32bits(v) & mask[i])
	}
	return r.dx
}

// OutputShape implements Layer.
func (r *ReLU) OutputShape(in []int) ([]int, error) { return append([]int(nil), in...), nil }

// FLOPsPerSample implements Layer.
func (r *ReLU) FLOPsPerSample(in []int) int64 { return int64(tensor.Volume(in)) }

// Softmax computes the temperature-scaled softmax of each row of logits
// (N, C) into a new tensor: p_j = exp(z_j/ρ) / Σ_k exp(z_k/ρ).
//
// Temperature ρ < 1 "hardens" the distribution (paper Eq. 6); ρ > 1 softens
// it as in knowledge distillation. ρ must be positive.
func Softmax(logits *tensor.Tensor, temperature float64) *tensor.Tensor {
	if logits.Rank() != 2 {
		panic(shapeErr("softmax", "rank 2", logits.Shape()))
	}
	if temperature <= 0 {
		panic("nn: softmax temperature must be positive")
	}
	n, c := logits.Dim(0), logits.Dim(1)
	out := tensor.New(n, c)
	for i := 0; i < n; i++ {
		row := logits.Data()[i*c : (i+1)*c]
		dst := out.Data()[i*c : (i+1)*c]
		softmaxRow(dst, row, temperature)
	}
	return out
}

// softmaxRow writes the numerically stable temperature softmax of src into
// dst.
func softmaxRow(dst, src []float32, temperature float64) {
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range src {
		e := math.Exp(float64(v-maxv) / temperature)
		dst[j] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for j := range dst {
		dst[j] *= inv
	}
}

// LogSoftmaxRow writes the numerically stable log-softmax of src into dst
// (temperature 1).
func LogSoftmaxRow(dst, src []float32) {
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range src {
		sum += math.Exp(float64(v - maxv))
	}
	lse := float32(math.Log(sum)) + maxv
	for j, v := range src {
		dst[j] = v - lse
	}
}
