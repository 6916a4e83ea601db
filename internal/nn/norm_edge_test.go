package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedfteds/internal/tensor"
)

func TestBatchNormDegenerateBatchOfOne(t *testing.T) {
	// A training forward with batch size 1 must not panic and must use the
	// running statistics, and Backward must produce finite gradients.
	bn, err := NewBatchNorm("bn", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Seed running stats with a few proper batches.
	rng := rand.New(rand.NewSource(1))
	warm := tensor.New(16, 3)
	warm.FillNormal(rng, 2, 1)
	for i := 0; i < 10; i++ {
		bn.Forward(warm, true)
	}
	rm := bn.runMean.Clone()

	single := tensor.New(1, 3)
	single.FillNormal(rng, 2, 1)
	y := bn.Forward(single, true)
	if !y.IsFinite() {
		t.Fatal("degenerate batch produced non-finite output")
	}
	// Running stats must not have been polluted by the undefined batch stats.
	if !bn.runMean.Equal(rm) {
		t.Fatal("batch-of-one forward updated running statistics")
	}
	dy := tensor.New(1, 3)
	dy.Fill(1)
	dx := bn.Backward(dy, true)
	if dx == nil || !dx.IsFinite() {
		t.Fatal("degenerate batch backward not finite")
	}
	// Gamma gradient accumulated (layer is trainable).
	if bn.gamma.G.Norm2() == 0 {
		t.Fatal("no gamma gradient from degenerate-batch backward")
	}
}

func TestBatchNormGradCheckDegeneratePath(t *testing.T) {
	// Numeric check of the decoupled backward: loss = Σ y² through a BN in
	// eval-statistics mode (frozen), perturbing the input.
	bn, err := NewBatchNorm("bn", 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	warm := tensor.New(32, 2)
	warm.FillNormal(rng, 0, 2)
	bn.Forward(warm, true)
	bn.SetFrozen(true)

	x := tensor.New(1, 2)
	x.FillNormal(rng, 0, 1)
	lossOf := func(in *tensor.Tensor) float64 {
		y := bn.Forward(in, true)
		var s float64
		for _, v := range y.Data() {
			s += float64(v) * float64(v)
		}
		return s
	}
	y := bn.Forward(x, true)
	dy := y.Clone()
	dy.Scale(2)
	dx := bn.Backward(dy, true)

	const eps = 1e-3
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		up := lossOf(x)
		x.Data()[i] = orig - eps
		down := lossOf(x)
		x.Data()[i] = orig
		numeric := (up - down) / (2 * eps)
		analytic := float64(dx.Data()[i])
		if math.Abs(numeric-analytic) > 1e-2*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("dx[%d]: analytic %.5f numeric %.5f", i, analytic, numeric)
		}
	}
}

func TestBatchNormRank2MatchesRank4(t *testing.T) {
	// The same data fed as (N, C) and as (N, C, 1, 1) must give bit-identical
	// outputs, running statistics, parameter gradients and input gradients:
	// rank-2 inputs take a row-major path, rank-4 inputs the per-plane one.
	const c = 5
	bits := func(v []float32) []uint32 {
		out := make([]uint32, len(v))
		for i, f := range v {
			out[i] = math.Float32bits(f)
		}
		return out
	}
	same := func(t *testing.T, what string, a, b []float32) {
		t.Helper()
		ab, bb := bits(a), bits(b)
		if len(ab) != len(bb) {
			t.Fatalf("%s: length %d vs %d", what, len(ab), len(bb))
		}
		for i := range ab {
			if ab[i] != bb[i] {
				t.Fatalf("%s[%d]: rank-2 %#08x, rank-4 %#08x", what, i, ab[i], bb[i])
			}
		}
	}
	type step struct {
		n      int
		train  bool
		frozen bool
		needDx bool
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"train batch stats", []step{{16, true, false, true}, {16, true, false, false}, {7, true, false, true}}},
		{"eval", []step{{16, true, false, true}, {9, false, false, true}, {9, false, false, false}}},
		{"frozen", []step{{16, true, false, true}, {12, true, true, true}, {12, true, true, false}}},
		{"batch of one", []step{{16, true, false, true}, {1, true, false, true}, {1, true, false, false}}},
		{"frozen batch of one", []step{{16, true, false, true}, {1, true, true, true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			row, err := NewBatchNorm("bn", c)
			if err != nil {
				t.Fatal(err)
			}
			plane, err := NewBatchNorm("bn", c)
			if err != nil {
				t.Fatal(err)
			}
			for _, bn := range []*BatchNorm{row, plane} {
				bn.gamma.W.FillNormal(rand.New(rand.NewSource(3)), 1, 0.5)
				bn.beta.W.FillNormal(rand.New(rand.NewSource(4)), 0, 0.5)
			}
			for si, st := range tc.steps {
				x := tensor.New(st.n, c)
				x.FillNormal(rng, 1, 2)
				dy := tensor.New(st.n, c)
				dy.FillNormal(rng, 0, 1)
				// Signed zeros in both input and upstream gradient.
				x.Data()[0], dy.Data()[0] = float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1))
				x4 := x.Clone().MustReshape(st.n, c, 1, 1)
				dy4 := dy.Clone().MustReshape(st.n, c, 1, 1)

				row.SetFrozen(st.frozen)
				plane.SetFrozen(st.frozen)
				y2 := row.Forward(x, st.train)
				y4 := plane.Forward(x4, st.train)
				same(t, "y", y2.Data(), y4.Data())
				same(t, "running mean", row.runMean.Data(), plane.runMean.Data())
				same(t, "running var", row.runVar.Data(), plane.runVar.Data())

				dx2 := row.Backward(dy, st.needDx)
				dx4 := plane.Backward(dy4, st.needDx)
				if (dx2 == nil) != !st.needDx || (dx4 == nil) != !st.needDx {
					t.Fatalf("step %d: needDx %v but dx nil = %v / %v", si, st.needDx, dx2 == nil, dx4 == nil)
				}
				if st.needDx {
					same(t, "dx", dx2.Data(), dx4.Data())
				}
				same(t, "gamma grad", row.gamma.G.Data(), plane.gamma.G.Data())
				same(t, "beta grad", row.beta.G.Data(), plane.beta.G.Data())
			}
		})
	}
}

func TestSoftmaxPanicsOnBadInput(t *testing.T) {
	check := func(name string, f func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		})
	}
	check("rank1", func() { Softmax(tensor.New(4), 1) })
	check("zero temp", func() { Softmax(tensor.New(1, 4), 0) })
	check("entropy rank", func() { ShannonEntropyRows(tensor.New(4)) })
}

func TestSequentialNestedFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inner1, err := NewDense("i1", 4, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	inner2, err := NewDense("i2", 4, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	nested := NewSequential("outer", NewSequential("inner", inner1), inner2)
	if nested.Frozen() {
		t.Fatal("fresh container reported frozen")
	}
	inner1.SetFrozen(true)
	if nested.Frozen() {
		t.Fatal("partially frozen container reported fully frozen")
	}
	if got := len(nested.TrainableParams()); got != 2 {
		t.Fatalf("TrainableParams = %d, want 2", got)
	}
	inner2.SetFrozen(true)
	if !nested.Frozen() {
		t.Fatal("fully frozen container not reported frozen")
	}
}

func TestResidualFrozenNoGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b1, err := NewDense("b", 3, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewDense("s", 3, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	res := NewResidual("r", NewSequential("body", b1), NewSequential("short", sc))
	res.SetFrozen(true)
	x := tensor.New(2, 3)
	x.FillNormal(rng, 0, 1)
	y := res.Forward(x, true)
	dy := y.Clone()
	dx := res.Backward(dy, true)
	if dx == nil {
		t.Fatal("frozen residual should still pass dx when requested")
	}
	for _, p := range res.Params() {
		if p.G.Norm2() != 0 {
			t.Fatalf("frozen residual accumulated gradient on %q", p.Name)
		}
	}
}

func TestConvNoBiasHasSingleParam(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := NewConv2D("c", 2, 3, 3, ConvOpts{NoBias: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Params()); got != 1 {
		t.Fatalf("NoBias conv has %d params, want 1", got)
	}
	withBias, err := NewConv2D("c2", 2, 3, 3, ConvOpts{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(withBias.Params()); got != 2 {
		t.Fatalf("biased conv has %d params, want 2", got)
	}
}

func TestNewConvRejectsBadOpts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := NewConv2D("c", 0, 3, 3, ConvOpts{}, rng); err == nil {
		t.Fatal("expected error for inC=0")
	}
	if _, err := NewConv2D("c", 2, 3, 3, ConvOpts{Padding: -1}, rng); err == nil {
		t.Fatal("expected error for negative padding")
	}
	if _, err := NewConv2D("c", 2, 3, 3, ConvOpts{Stride: -2}, rng); err == nil {
		t.Fatal("expected error for negative stride")
	}
}
