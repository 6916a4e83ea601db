package main

import (
	"math/rand"
	"sync/atomic"

	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// The decorators below time the engine's calls across its public seams and
// forward everything else unchanged. Each one exposes exactly the optional
// interfaces its inner value implements: the engine type-asserts
// selection.UtilityScorer, strategy.MaskProvider, strategy.Stateful and
// sched.Stateful, and a decorator that hid one of them would change EDS
// utilities, masks or scheduling without any error.

// tracedSelector times Select calls and counts the samples scored and the
// training batches the selection leads to (epochs × batches of the selected
// samples), which sizes the nn per-layer timings against a round.
type tracedSelector struct {
	inner               selection.Selector
	tr                  *tracer
	lane, depth, epochs int
}

// tracedUtilitySelector adds the UtilityScorer extension of its inner
// selector.
type tracedUtilitySelector struct {
	*tracedSelector
	us selection.UtilityScorer
}

// traceSelector wraps sel when tr records spans; otherwise it returns sel.
// epochs is the local epochs the selected samples are trained for.
func traceSelector(sel selection.Selector, tr *tracer, lane, depth, epochs int) selection.Selector {
	if tr == nil || !tr.full {
		return sel
	}
	base := &tracedSelector{inner: sel, tr: tr, lane: lane, depth: depth, epochs: epochs}
	if us, ok := sel.(selection.UtilityScorer); ok {
		return tracedUtilitySelector{base, us}
	}
	return base
}

func (s *tracedSelector) Name() string       { return s.inner.Name() }
func (s *tracedSelector) ScoringPasses() int { return s.inner.ScoringPasses() }

func (s *tracedSelector) Select(m *models.Model, ds *data.Dataset, fraction float64, rng *rand.Rand) ([]int, error) {
	t0 := s.tr.now()
	idx, err := s.inner.Select(m, ds, fraction, rng)
	s.done(t0, ds, len(idx))
	return idx, err
}

func (s tracedUtilitySelector) SelectWithUtility(m *models.Model, ds *data.Dataset, fraction float64, rng *rand.Rand) ([]int, float64, error) {
	t0 := s.tr.now()
	idx, u, err := s.us.SelectWithUtility(m, ds, fraction, rng)
	s.done(t0, ds, len(idx))
	return idx, u, err
}

func (s *tracedSelector) done(t0 int64, ds *data.Dataset, selected int) {
	s.tr.record("selection.select", s.lane, s.depth, t0)
	s.tr.count("selection.scored_samples", float64(ds.Len()*s.inner.ScoringPasses()))
	s.tr.count("nn.train_batches", float64(s.epochs*((selected+trainBatch-1)/trainBatch)))
}

// clockedStrategy marks a round boundary at the end of every ApplyAggregate
// call, which every engine makes once per round, and then runs the speed
// reference (see calibrate.go). It is installed in untraced runs too, where
// it records nothing else.
type clockedStrategy struct {
	inner strategy.Strategy
	tr    *tracer
}

// strategyState is strategy.Stateful without its embedded Strategy, so it
// can be embedded next to *clockedStrategy without ambiguous methods.
type strategyState interface {
	StateTensors() []*tensor.Tensor
	RestoreStateTensors(ts []*tensor.Tensor) error
}

// clockStrategy wraps s; a nil tracer returns s itself.
func clockStrategy(s strategy.Strategy, tr *tracer) strategy.Strategy {
	if tr == nil {
		return s
	}
	base := &clockedStrategy{inner: s, tr: tr}
	mp, isMask := s.(strategy.MaskProvider)
	st, isState := s.(strategyState)
	switch {
	case isMask && isState:
		return struct {
			*clockedStrategy
			strategy.MaskProvider
			strategyState
		}{base, mp, st}
	case isMask:
		return struct {
			*clockedStrategy
			strategy.MaskProvider
		}{base, mp}
	case isState:
		return struct {
			*clockedStrategy
			strategyState
		}{base, st}
	}
	return base
}

func (s *clockedStrategy) Name() string                  { return s.inner.Name() }
func (s *clockedStrategy) Fingerprint() string           { return s.inner.Fingerprint() }
func (s *clockedStrategy) LocalHook() strategy.LocalHook { return s.inner.LocalHook() }

func (s *clockedStrategy) WeighUpdates(ups []strategy.Update, w []float64) error {
	return s.inner.WeighUpdates(ups, w)
}

func (s *clockedStrategy) ApplyAggregate(global, avg []*tensor.Tensor) error {
	t0 := s.tr.now()
	err := s.inner.ApplyAggregate(global, avg)
	s.tr.mark(s.tr.record("strategy.apply", 0, 1, t0))
	s.tr.reference()
	return err
}

// tracedScheduler times Schedule calls and counts the candidates offered.
type tracedScheduler struct {
	inner sched.Scheduler
	tr    *tracer
}

// schedState is sched.Stateful without its embedded Scheduler.
type schedState interface {
	SnapshotState() ([]byte, error)
	RestoreState(state []byte) error
}

func traceScheduler(s sched.Scheduler, tr *tracer) sched.Scheduler {
	if tr == nil || !tr.full {
		return s
	}
	base := &tracedScheduler{inner: s, tr: tr}
	if st, ok := s.(schedState); ok {
		return struct {
			*tracedScheduler
			schedState
		}{base, st}
	}
	return base
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Schedule(round int, cands []sched.Candidate, k int, rng *rand.Rand) []int {
	t0 := s.tr.now()
	out := s.inner.Schedule(round, cands, k, rng)
	s.tr.record("sched.schedule", 0, 1, t0)
	s.tr.count("sched.candidates", float64(len(cands)))
	return out
}

// tracedSource times Acquire and Release and counts Describe calls. Describe
// runs once per client per round (100k times on the fleet workload), so it
// gets an atomic counter instead of a span.
type tracedSource struct {
	inner     core.ClientSource
	tr        *tracer
	describes atomic.Int64
}

func traceSource(src core.ClientSource, tr *tracer) core.ClientSource {
	if tr == nil || !tr.full {
		return src
	}
	return &tracedSource{inner: src, tr: tr}
}

func (s *tracedSource) NumClients() int     { return s.inner.NumClients() }
func (s *tracedSource) Fingerprint() string { return s.inner.Fingerprint() }

func (s *tracedSource) Describe(pos int) core.ClientDesc {
	s.describes.Add(1)
	return s.inner.Describe(pos)
}

func (s *tracedSource) Acquire(positions []int, dst []*core.Client) ([]*core.Client, error) {
	t0 := s.tr.now()
	out, err := s.inner.Acquire(positions, dst)
	s.tr.record("fleet.acquire", 0, 1, t0)
	return out, err
}

func (s *tracedSource) Release(clients []*core.Client) {
	t0 := s.tr.now()
	s.inner.Release(clients)
	s.tr.record("fleet.release", 0, 1, t0)
}

// takeDescribes returns and clears the Describe count (0 for an untraced
// source).
func takeDescribes(src core.ClientSource) int64 {
	if s, ok := src.(*tracedSource); ok {
		return s.describes.Swap(0)
	}
	return 0
}
