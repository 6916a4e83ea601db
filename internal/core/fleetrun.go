package core

import (
	"fmt"
	"math"
	"sort"

	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// AsyncConfig shapes buffered-asynchronous (FedBuff-style) aggregation:
// every client trains continuously against the model version it last
// received, the server buffers finished updates as they arrive in simulated
// time, and aggregates as soon as Buffer of them are in hand — discounting
// each update by its staleness (how many aggregations the global model has
// advanced since the update's base version was dispatched).
type AsyncConfig struct {
	// Buffer is M, the number of buffered updates that triggers an
	// aggregation. Buffer = in-flight window with the identity weigher
	// degenerates to the synchronous engine (bit for bit — see
	// RunFleetAsync).
	Buffer int
	// MaxStaleness discards updates staler than this many versions instead
	// of folding them; the discarded client immediately receives the current
	// model. Negative means unlimited (nothing is discarded).
	MaxStaleness int
	// Weigher maps staleness to the discount multiplied into the strategy's
	// aggregation weight. Nil means identity (no discount).
	Weigher strategy.StalenessWeigher
}

// FleetAsyncConfig is AsyncConfig plus the fleet's client departures.
type FleetAsyncConfig struct {
	AsyncConfig
	// Departed, when non-nil, reports that a client left the fleet before
	// its update for the given aggregation arrived. The update is dropped —
	// its compute is accounted (the client did train) but nothing is
	// uplinked — and the vacated slot is refilled at the next aggregation
	// boundary.
	Departed func(round, clientID int) bool
}

// RunFleetAsync executes Config.Rounds buffered-asynchronous aggregations
// over a simulated-time event queue and returns the history (one record per
// aggregation). Clients overlap: each trains for its projected round cost in
// simulated seconds, reports, and is handed the then-current model when its
// slot is refilled at an aggregation boundary (or immediately, when its
// update was discarded as too stale). Updates fold in ascending pool
// position, the synchronous engine's participant order.
//
// The in-flight window is Config.CohortSize clients admitted by
// Config.Scheduler, which keeps the engine's working set O(cohort) over a
// million-client fleet: folded and departed slots are refilled by the
// scheduler over the candidates not currently in flight, which is where
// trace-driven availability and cluster-stratified sampling plug in. Without
// a scheduler the window is the whole population, as in Run: every idle
// client is dispatched at each boundary.
//
// With Buffer = window, no departures and no staleness discards, every
// aggregation folds exactly the window it dispatched, so the run replays the
// synchronous Run bit for bit (TestAsyncFullBufferBitIdenticalToSync,
// TestFleetAsyncFullBufferMatchesRun).
//
// Async mode replaces the admission machinery wholesale: it rejects
// straggler policies, tiers, per-client masks, codecs and in-simulator
// checkpointing (warm restarts of async state live in the distributed
// server).
func (r *Runner) RunFleetAsync(acfg FleetAsyncConfig) (History, error) {
	n := r.src.NumClients()
	window := r.cfg.CohortSize
	if r.cfg.Scheduler == nil {
		window = n
	}
	switch {
	case r.restored:
		return History{}, fmt.Errorf("%w: the async simulator does not resume from checkpoints; "+
			"warm restarts of async state live in the distributed server", ErrConfig)
	case window < 1:
		return History{}, fmt.Errorf("%w: a scheduler in async mode needs CohortSize — the "+
			"scheduled window is its admission policy", ErrConfig)
	case r.cfg.TierDist != nil:
		return History{}, fmt.Errorf("%w: tiered partial training is synchronous-only; drop TierDist "+
			"for async runs", ErrConfig)
	case r.cfg.CheckpointEvery > 0:
		return History{}, fmt.Errorf("%w: the async simulator does not checkpoint; use the synchronous "+
			"engine or the distributed server for resumable runs", ErrConfig)
	case r.cfg.Codec != "":
		return History{}, fmt.Errorf("%w: the async simulator does not simulate uplink codecs; drop "+
			"Codec for async runs", ErrConfig)
	case window > n:
		return History{}, fmt.Errorf("%w: in-flight window %d exceeds the %d-client fleet", ErrConfig, window, n)
	case acfg.Buffer < 1 || acfg.Buffer > window:
		return History{}, fmt.Errorf("%w: async buffer %d must lie in [1, %d] — a larger buffer "+
			"could never fill from the %d-client in-flight window", ErrConfig, acfg.Buffer, window, window)
	}
	if _, ok := r.cfg.Straggler.(simtime.FullParticipation); !ok {
		return History{}, fmt.Errorf("%w: straggler policies do not apply in async mode — slow clients "+
			"go stale instead of dropping out", ErrConfig)
	}
	if r.maskProvider() != nil {
		return History{}, fmt.Errorf("%w: strategy %s provides per-client masks, which are "+
			"synchronous-only", ErrConfig, r.strat.Name())
	}
	weigher := acfg.Weigher
	if weigher == nil {
		weigher = strategy.IdentityStaleness()
	}

	r.hist = History{}
	r.acct = simtime.Accountant{}
	r.startRound, r.doneRound = 0, 0
	stateSize, err := r.beginRun()
	if err != nil {
		return r.hist, err
	}

	// In-flight state is indexed by pool position (nil when the client is
	// not in flight): the buffered update (in owned tensors from a free
	// list), and the model version it trained against. Every in-flight
	// client has exactly one arrival event queued until it is popped, so
	// the window's occupancy between aggregations is q.Len().
	type flight struct {
		res     clientResult
		version int
		bufs    []*tensor.Tensor
	}
	pend := make([]*flight, n)
	var bufFree [][]*tensor.Tensor
	var q simtime.EventQueue
	now := 0.0
	version := 0

	// pick admits k clients among those not in flight. A scheduler gets the
	// idle positions as its candidate set itself (not just flagged):
	// availability wrappers overwrite the Available flag from their own
	// churn state, and a client cannot train two models at once. Without a
	// scheduler the window is the whole population, so k is every idle
	// position.
	var idle []int
	pick := func(round, k int) []int {
		if r.cfg.Scheduler != nil {
			return r.schedule(round, k, func(pos int) bool { return pend[pos] != nil })
		}
		idle = idle[:0]
		for pos, fl := range pend {
			if fl == nil {
				idle = append(idle, pos)
			}
		}
		return idle
	}

	dispatch := func(positions []int, round int, at float64) error {
		if len(positions) == 0 {
			return nil
		}
		sort.Ints(positions)
		parts, err := r.src.Acquire(positions, r.partScratch)
		if err != nil {
			return fmt.Errorf("core: acquiring aggregation %d dispatch: %w", round, err)
		}
		r.partScratch = parts
		results, err := r.trainParticipants(parts, round)
		r.src.Release(parts)
		if err != nil {
			return err
		}
		for i, pos := range positions {
			res := results[i]
			var bufs []*tensor.Tensor
			if len(bufFree) > 0 {
				bufs = bufFree[len(bufFree)-1]
				bufFree = bufFree[:len(bufFree)-1]
			}
			if cap(bufs) < len(res.state) {
				bufs = append(bufs[:len(bufs)], make([]*tensor.Tensor, len(res.state)-len(bufs))...)
			}
			bufs = bufs[:len(res.state)]
			for ti, src := range res.state {
				if bufs[ti] == nil || !bufs[ti].SameShape(src) {
					bufs[ti] = tensor.Ensure(bufs[ti], src.Shape()...)
				}
				if err := bufs[ti].CopyFrom(src); err != nil {
					return fmt.Errorf("core: buffering update from client %d: %w", res.clientID, err)
				}
			}
			res.state = bufs
			pend[pos] = &flight{res: res, version: version, bufs: bufs}
			q.Push(simtime.Event{Time: at + r.projCost[pos], ID: pos})
		}
		return nil
	}

	initial := pick(1, window)
	if len(initial) == 0 {
		return r.hist, fmt.Errorf("core: scheduler %s admitted no clients into the initial window", r.policy)
	}
	if err := dispatch(initial, 1, now); err != nil {
		return r.hist, err
	}

	var (
		foldedPos []int
		aggRes    []clientResult
		aggLam    []float64
		usedBufs  [][]*tensor.Tensor
		redisp    []int
	)
	for agg := 1; agg <= r.cfg.Rounds; agg++ {
		foldedPos, usedBufs = foldedPos[:0], usedBufs[:0]
		discarded, departed := 0, 0
		for len(foldedPos) < acfg.Buffer {
			ev, ok := q.Pop()
			if !ok {
				return r.hist, fmt.Errorf("core: async aggregation %d starved with %d/%d updates "+
					"buffered and no client in flight", agg, len(foldedPos), acfg.Buffer)
			}
			now = ev.Time
			fl := pend[ev.ID]
			if fl == nil {
				return r.hist, fmt.Errorf("core: arrival event for position %d with no in-flight update", ev.ID)
			}
			if acfg.Departed != nil && acfg.Departed(agg, fl.res.clientID) {
				// The client trained but left before uploading: account the
				// compute, drop the update, free the slot for the next refill.
				r.acct.AddRound(fl.res.cost)
				departed++
				pend[ev.ID] = nil
				bufFree = append(bufFree, fl.bufs)
				continue
			}
			s := version - fl.version
			if acfg.MaxStaleness >= 0 && s > acfg.MaxStaleness {
				// Computed and uplinked regardless; count the work, drop the
				// update, and hand the client the current model right away.
				r.acct.AddRound(fl.res.cost)
				r.acct.AddCommunication(stateSize, stateSize)
				discarded++
				pend[ev.ID] = nil
				bufFree = append(bufFree, fl.bufs)
				redisp = append(redisp[:0], ev.ID)
				if err := dispatch(redisp, agg, now); err != nil {
					return r.hist, err
				}
				continue
			}
			foldedPos = append(foldedPos, ev.ID)
		}

		// Fold in ascending position — the synchronous engine's participant
		// order — so the full-buffer window replays Run's arithmetic exactly.
		sort.Ints(foldedPos)
		aggRes, aggLam = aggRes[:0], aggLam[:0]
		for _, pos := range foldedPos {
			fl := pend[pos]
			s := version - fl.version
			lam := weigher.Weight(s)
			if lam <= 0 || math.IsNaN(lam) || math.IsInf(lam, 0) {
				return r.hist, fmt.Errorf("core: staleness weigher %s returned %v for staleness %d",
					weigher.Name(), lam, s)
			}
			aggRes = append(aggRes, fl.res)
			aggLam = append(aggLam, lam)
			usedBufs = append(usedBufs, fl.bufs)
			pend[pos] = nil
		}
		if err := r.aggregate(aggRes, r.commState, aggLam); err != nil {
			return r.hist, err
		}
		version++
		bufFree = append(bufFree, usedBufs...)

		var lossSum float64
		for i, res := range aggRes {
			r.acct.AddRound(res.cost)
			r.acct.AddCommunication(stateSize, stateSize)
			lossSum += res.trainLoss
			r.utility.ObserveUpdate(foldedPos[i], res.meanEntropy, res.trainLoss, res.cost.Total())
		}

		if err := r.recordRound(agg, len(aggRes)+discarded+departed, len(aggRes), lossSum); err != nil {
			return r.hist, err
		}

		// Refill the window back to size from the clients not in flight. A
		// scheduler is where trace availability decides who is reachable and
		// cluster sampling keeps the mix stratified.
		if agg < r.cfg.Rounds {
			if need := window - q.Len(); need > 0 {
				if err := dispatch(pick(agg+1, need), agg+1, now); err != nil {
					return r.hist, err
				}
			}
		}
	}
	return r.finishRun(), nil
}
