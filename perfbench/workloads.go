package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"fedfteds/internal/comm"
	"fedfteds/internal/core"
	"fedfteds/internal/data"
	"fedfteds/internal/experiments"
	"fedfteds/internal/fleet"
	"fedfteds/internal/metrics"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// The paper's client optimizer and EDS settings, as the experiments package
// and fedclient use them.
const (
	// domainSeed fixes the synthetic task suite and the source-domain
	// pretraining, the way a real benchmark fixes its dataset. The --seed
	// then draws each workload's federation from it: client data, test set,
	// partition, devices, and all training randomness. With the task fixed,
	// final accuracy moves with the draw, not with a new task per seed.
	domainSeed = 1

	clientLR       = 0.05
	clientMomentum = 0.5
	edsTemperature = 0.1
	edsFraction    = 0.5
)

// workload is one benchmark input: setup builds the federation or fleet from
// the seed, and the world it returns runs the same deterministic episode as
// often as asked.
type workload struct {
	name  string
	setup func(seed int64) (world, error)
}

type world interface {
	// run executes one episode: a fixed number of rounds from the same
	// initial global model. tr is nil for a run without any decorator.
	run(tr *tracer) (*episode, error)
	// layerModel is the workload's model, for the per-layer timings.
	layerModel() *models.Model
}

// episode is the outcome of one world.run.
type episode struct {
	digest            string
	rounds            int
	bounds            []int64 // rounds+1 boundaries, ns since the tracer origin; nil for bare runs
	spans             []span
	refs              []span // speed-reference runs inside the rounds' bounds
	counts            map[string]float64
	initAcc, finalAcc float64
	wireBytes         int64
	attempted, failed int
	// evalAcc and evalMs are the result and duration of the benchmark's own
	// metrics.Accuracy call on the final model (sim-eds, fleet-day);
	// tcp-loopback evaluates every round on the server instead.
	evalAcc, evalMs float64
	// stats are workload-specific per-episode layer numbers.
	stats map[string]float64
	// wireExpected is the byte count the TCP rounds must move; 0 elsewhere.
	wireExpected int64
}

var workloads = []workload{
	{name: "sim-eds", setup: setupSim},
	{name: "tcp-loopback", setup: setupTCP},
	{name: "fleet-day", setup: setupFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// finish fills the fields every engine reports the same way.
func (e *episode) finish(tr *tracer, start, end int64, hist core.History, global *models.Model) error {
	e.rounds = len(hist.Records)
	e.digest = historyDigest(hist, global)
	e.finalAcc = hist.FinalAccuracy
	if tr == nil {
		return nil
	}
	bounds, ok := roundBounds(start, end, tr.marks, e.rounds)
	if !ok || len(tr.refs) != e.rounds {
		return fmt.Errorf("%d ApplyAggregate calls and %d reference runs for %d rounds", len(tr.marks), len(tr.refs), e.rounds)
	}
	e.bounds, e.spans, e.refs, e.counts = bounds, tr.spans, tr.refs, tr.counts
	return nil
}

// historyDigest hashes every RoundRecord, the History totals and the final
// global model state bit for bit.
func historyDigest(h core.History, m *models.Model) string {
	d := sha256.New()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for _, r := range h.Records {
		u64(uint64(r.Round))
		u64(uint64(r.CohortSize))
		u64(uint64(len(r.SchedPolicy)))
		buf = append(buf, r.SchedPolicy...)
		u64(uint64(r.Participants))
		f64(r.TestAccuracy)
		f64(r.MeanTrainLoss)
		f64(r.CumTrainSeconds)
		u64(uint64(r.CumUplinkBytes))
	}
	f64(h.BestAccuracy)
	f64(h.FinalAccuracy)
	f64(h.TotalTrainSeconds)
	u64(uint64(h.TotalUplinkBytes))
	u64(uint64(h.TotalDownlinkBytes))
	for _, t := range m.StateTensors() {
		for _, s := range t.Shape() {
			u64(uint64(s))
		}
		for _, v := range t.Data() {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	d.Write(buf)
	return hex.EncodeToString(d.Sum(nil))
}

// timedAccuracy evaluates m on ds and returns the accuracy and the call's
// duration in ms.
func timedAccuracy(m *models.Model, ds *data.Dataset) (float64, float64, error) {
	t0 := time.Now()
	acc, err := metrics.Accuracy(m, ds)
	return acc, float64(time.Since(t0)) / 1e6, err
}

// --- sim-eds: the paper's Table II FedFT-EDS cell in the simulator --------

type simWorld struct {
	env    *experiments.Env
	fed    *experiments.Federation
	init   *models.Model
	seed   int64
	rounds int
}

func setupSim(seed int64) (world, error) {
	env, err := experiments.NewEnv(experiments.ScaleFull, domainSeed)
	if err != nil {
		return nil, err
	}
	fed, err := env.BuildFederation(env.Suite.Target10, env.Dims.SmallClients, 0.1, seed)
	if err != nil {
		return nil, err
	}
	init, err := env.PretrainedModel(env.Suite.Target10, env.Suite.Source)
	if err != nil {
		return nil, err
	}
	return &simWorld{env: env, fed: fed, init: init, seed: seed, rounds: env.Dims.Rounds}, nil
}

func (w *simWorld) layerModel() *models.Model { return w.init }

func (w *simWorld) run(tr *tracer) (*episode, error) {
	global, err := w.init.Clone()
	if err != nil {
		return nil, err
	}
	ep := &episode{}
	if ep.initAcc, err = metrics.Accuracy(global, w.fed.Test); err != nil {
		return nil, err
	}
	cfg := core.Config{
		Rounds:         w.rounds,
		LocalEpochs:    w.env.Dims.LocalEpochs,
		LR:             clientLR,
		Momentum:       clientMomentum,
		FinetunePart:   models.FinetuneModerate,
		Selector:       traceSelector(selection.Entropy{Temperature: edsTemperature}, tr, 0, 1, w.env.Dims.LocalEpochs),
		SelectFraction: edsFraction,
		Strategy:       clockStrategy(strategy.FedAvg(), tr),
		Seed:           tensor.DeriveSeed(uint64(w.seed), 0x51DE),
	}
	runner, err := core.NewRunner(cfg, global, w.fed.Clients, w.fed.Test)
	if err != nil {
		return nil, err
	}
	start := tr.now()
	hist, err := runner.Run()
	end := tr.now()
	if err != nil {
		return nil, err
	}
	if err := ep.finish(tr, start, end, hist, global); err != nil {
		return nil, err
	}
	ep.wireBytes = hist.TotalUplinkBytes + hist.TotalDownlinkBytes
	for _, r := range hist.Records {
		ep.attempted += r.CohortSize
		ep.failed += r.CohortSize - r.Participants
	}
	ep.evalAcc, ep.evalMs, err = timedAccuracy(global, w.fed.Test)
	return ep, err
}

// --- tcp-loopback: fedserver's defaults over real 127.0.0.1 TCP ----------

// fedserver's defaults: 2 clients, 10 rounds, P_ds 0.5, E 5, fedavg,
// identity codec, quorum 1 and no deadline.
const (
	tcpClients = 2
	tcpRounds  = 10
	tcpEpochs  = 5
)

type tcpWorld struct {
	seed         int64
	rounds       int
	init         *models.Model   // the server's pretrained global model
	clientModels []*models.Model // each client's own copy, as fedclient builds it
	clients      []*core.Client
	test         *data.Dataset
}

// setupTCP builds what fedserver's NewWorld and every fedclient build from
// the shared seed: the ScaleFast world, the pretrained FinetuneModerate
// model and the 2-client Diri(0.1) partition.
func setupTCP(seed int64) (world, error) {
	env, err := experiments.NewEnv(experiments.ScaleFast, domainSeed)
	if err != nil {
		return nil, err
	}
	fed, err := env.BuildFederation(env.Suite.Target10, tcpClients, 0.1, seed)
	if err != nil {
		return nil, err
	}
	w := &tcpWorld{seed: seed, rounds: tcpRounds, clients: fed.Clients, test: fed.Test}
	for i := 0; i <= tcpClients; i++ {
		m, err := env.PretrainedModel(env.Suite.Target10, env.Suite.Source)
		if err != nil {
			return nil, err
		}
		if err := m.SetFinetunePart(models.FinetuneModerate); err != nil {
			return nil, err
		}
		if i == 0 {
			w.init = m
		} else {
			w.clientModels = append(w.clientModels, m)
		}
	}
	return w, nil
}

func (w *tcpWorld) layerModel() *models.Model { return w.init }

func (w *tcpWorld) run(tr *tracer) (*episode, error) {
	global, err := w.init.Clone()
	if err != nil {
		return nil, err
	}
	ep := &episode{}
	if ep.initAcc, err = metrics.Accuracy(global, w.test); err != nil {
		return nil, err
	}
	l, err := comm.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()

	var wg sync.WaitGroup
	clientErrs := make([]error, tcpClients)
	var downlink [tcpClients]int64
	for id := 0; id < tcpClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			clientErrs[id] = w.client(l.Addr(), id, tr, &downlink[id])
		}(id)
	}
	hist, start, end, srvErr := w.serve(l, global, tr, ep)
	if srvErr != nil {
		// Joined clients were released by the session's shutdown; closing
		// the listener fails the ones that have not joined yet instead of
		// leaving them waiting for a Welcome.
		l.Close()
	}
	wg.Wait()
	if err := errors.Join(append([]error{srvErr}, clientErrs...)...); err != nil {
		return nil, err
	}
	if err := ep.finish(tr, start, end, hist, global); err != nil {
		return nil, err
	}
	uplink := ep.wireBytes
	for _, d := range downlink {
		ep.wireBytes += d
	}
	ep.stats = map[string]float64{"comm.uplink_bytes": float64(uplink), "comm.downlink_bytes": float64(ep.wireBytes - uplink)}
	commState, err := global.GroupStateTensors(global.TrainableGroupNames())
	if err != nil {
		return nil, err
	}
	stateBytes := int64(4) // EncodeTensors' tensor-count header
	for _, t := range commState {
		stateBytes += int64(t.EncodedSize())
	}
	ep.wireExpected = stateBytes * tcpClients * 2 * int64(ep.rounds)
	return ep, nil
}

// serve is fedserver's synchronous round loop for its default flags. It
// returns the History and the start and end of the rounds, and adds the
// uplink payload bytes and the client updates to ep.
func (w *tcpWorld) serve(l comm.Listener, global *models.Model, tr *tracer, ep *episode) (core.History, int64, int64, error) {
	var hist core.History
	sess, err := comm.AcceptClients(l, tcpClients, w.rounds)
	if err != nil {
		return hist, 0, 0, err
	}
	defer sess.Shutdown("done")
	engine, err := comm.NewRoundEngine(sess, comm.EngineConfig{Quorum: 1})
	if err != nil {
		return hist, 0, 0, err
	}
	strat := clockStrategy(strategy.FedAvg(), tr)
	commGroups := global.TrainableGroupNames()
	var (
		upScratch [1]strategy.Update
		wScratch  [1]float64
	)
	weigh := func(u comm.ClientUpdate) (float64, error) {
		upScratch[0] = strategy.Update{ClientID: u.ClientID, NumSelected: u.NumSelected, LocalSize: sess.LocalSize(u.ClientID)}
		if err := strat.WeighUpdates(upScratch[:], wScratch[:]); err != nil {
			return 0, err
		}
		return wScratch[0], nil
	}
	var cumTrainSeconds float64
	start := tr.now()
	for round := 1; round <= w.rounds; round++ {
		t0 := tr.now()
		stateTs, err := global.GroupStateTensors(commGroups)
		if err != nil {
			return hist, 0, 0, err
		}
		blob, err := comm.EncodeTensors(stateTs)
		if err != nil {
			return hist, 0, 0, err
		}
		tr.record("comm.broadcast_encode", 0, 1, t0)

		agg := comm.NewWeightedStreamAggregator(weigh)
		var roundTrainSeconds, lossSum float64
		fold := func(u comm.ClientUpdate) error {
			t0 := tr.now()
			err := agg.Add(u)
			tr.record("comm.fold", 0, 2, t0)
			if err != nil {
				return err
			}
			ep.wireBytes += int64(len(u.State))
			roundTrainSeconds += u.TrainSeconds
			lossSum += u.TrainLoss
			return nil
		}
		rs := comm.RoundStart{Round: round, State: blob, Groups: commGroups,
			SelectFraction: edsFraction, LocalEpochs: tcpEpochs}
		t0 = tr.now()
		out, err := engine.RunRound(rs, fold)
		tr.record("comm.run_round", 0, 1, t0)
		ep.attempted += tcpClients
		ep.failed += len(out.TimedOut) + len(out.Dropped) + out.LateDiscarded
		if err != nil {
			return hist, 0, 0, err
		}
		t0 = tr.now()
		fused, err := agg.Finish()
		tr.record("comm.finish", 0, 1, t0)
		if err != nil {
			return hist, 0, 0, err
		}
		if err := strat.ApplyAggregate(stateTs, fused); err != nil {
			return hist, 0, 0, err
		}
		t0 = tr.now()
		acc, err := metrics.Accuracy(global, w.test)
		tr.record("metrics.accuracy", 0, 1, t0)
		if err != nil {
			return hist, 0, 0, err
		}
		cumTrainSeconds += roundTrainSeconds
		hist.Records = append(hist.Records, core.RoundRecord{
			Round:           round,
			CohortSize:      tcpClients,
			Participants:    len(out.Reported),
			TestAccuracy:    acc,
			MeanTrainLoss:   lossSum / float64(len(out.Reported)),
			CumTrainSeconds: cumTrainSeconds,
		})
		hist.BestAccuracy = max(hist.BestAccuracy, acc)
		hist.FinalAccuracy = acc
	}
	end := tr.now()
	hist.TotalTrainSeconds = cumTrainSeconds
	return hist, start, end, nil
}

// client makes the calls fedclient makes for its default flags; lane id+1
// carries its spans.
func (w *tcpWorld) client(addr string, id int, tr *tracer, downlink *int64) error {
	lane := id + 1
	global, me := w.clientModels[id], w.clients[id]
	conn, err := comm.DialTCP(addr, 10*time.Second)
	if err != nil {
		return err
	}
	sess, welcome, err := comm.Join(conn, id, me.Data.Len())
	if err != nil {
		conn.Close()
		return err
	}
	defer sess.Close()
	selector := traceSelector(selection.Entropy{Temperature: edsTemperature}, tr, lane, 3, tcpEpochs)
	for {
		rs, ok, err := sess.NextRound()
		if err != nil {
			return fmt.Errorf("client %d: %w", id, err)
		}
		if !ok {
			return nil
		}
		*downlink += int64(len(rs.State))
		t0 := tr.now()
		stateTs, err := comm.DecodeTensors(rs.State)
		if err != nil {
			return err
		}
		dst, err := global.GroupStateTensors(rs.Groups)
		if err != nil {
			return err
		}
		if len(dst) != len(stateTs) {
			return fmt.Errorf("client %d round %d: got %d state tensors, want %d", id, rs.Round, len(stateTs), len(dst))
		}
		for i := range dst {
			if err := dst[i].CopyFrom(stateTs[i]); err != nil {
				return err
			}
		}
		tr.record("comm.client_decode", lane, 2, t0)

		t0 = tr.now()
		localCfg, err := core.NewLocalConfig(core.Config{
			Rounds:         welcome.Rounds,
			LocalEpochs:    rs.LocalEpochs,
			LR:             clientLR,
			Momentum:       clientMomentum,
			FinetunePart:   models.FinetuneModerate,
			Selector:       selector,
			SelectFraction: rs.SelectFraction,
			Strategy:       strategy.FedAvg(),
			Seed:           w.seed,
		})
		if err != nil {
			return err
		}
		out, err := core.LocalUpdate(localCfg, global, me, rs.Round)
		tr.record("core.local_update", lane, 2, t0)
		if err != nil {
			return err
		}
		t0 = tr.now()
		blob, err := comm.EncodeTensors(out.State)
		tr.record("comm.client_encode", lane, 2, t0)
		if err != nil {
			return err
		}
		if err := sess.SendUpdate(comm.ClientUpdate{
			ClientID:     id,
			Round:        rs.Round,
			Version:      rs.Version,
			State:        blob,
			NumSelected:  out.NumSelected,
			TrainSeconds: out.Cost.Total(),
			TrainLoss:    out.TrainLoss,
			MeanEntropy:  out.MeanEntropy,
		}); err != nil {
			return fmt.Errorf("client %d: %w", id, err)
		}
	}
}

// --- fleet-day: 24 buffered-async aggregations over a 100k-client fleet ---

// The fleet-day shape of fedsim -fleet -clients 100000 -cohort 64 -buffer 32
// -scale smoke; the spec mirrors the experiments package's fleet sizing.
const (
	fleetClients = 100000
	fleetCohort  = 64
	fleetBuffer  = 32
	fleetRounds  = 24
)

type fleetWorld struct {
	env    *experiments.Env
	fleet  *fleet.Fleet
	rounds int
	test   *data.Dataset
	init   *models.Model
	seed   int64
	// newMs is the fleet.New call's duration.
	newMs float64
}

func setupFleet(seed int64) (world, error) { return setupFleetOf(seed, fleetClients) }

// setupFleetOf builds a fleet of the given population; tests use a small one.
func setupFleetOf(seed int64, clients int) (*fleetWorld, error) {
	env, err := experiments.NewEnv(experiments.ScaleSmoke, domainSeed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	f, err := fleet.New(fleet.Spec{
		Clients: clients, Seed: seed + 2000, Domain: env.Suite.Target10,
		MinSamples: 10, MaxSamples: 30, Alpha: 0.3,
		MedianFLOPS: 1e9, Sigma: 0.35,
		Clusters: 8, PoolSize: 2 * fleetCohort,
	})
	newMs := float64(time.Since(t0)) / 1e6
	if err != nil {
		return nil, err
	}
	test, err := env.Suite.Target10.GenerateBalanced(env.Dims.TestSamples, tensor.NewRand(uint64(seed), 0xF1EE7E57))
	if err != nil {
		return nil, err
	}
	init, err := env.FreshModel(env.Suite.Target10)
	if err != nil {
		return nil, err
	}
	return &fleetWorld{env: env, fleet: f, rounds: fleetRounds, test: test, init: init, seed: seed, newMs: newMs}, nil
}

func (w *fleetWorld) layerModel() *models.Model { return w.init }

func (w *fleetWorld) run(tr *tracer) (*episode, error) {
	global, err := w.init.Clone()
	if err != nil {
		return nil, err
	}
	ep := &episode{}
	if ep.initAcc, err = metrics.Accuracy(global, w.test); err != nil {
		return nil, err
	}
	// The trace availability wrapper keeps churn state across rounds, so
	// every episode gets a fresh one.
	trace, err := fleet.ParseTrace(fleet.DiurnalTraceText(w.fleet.NumClients()))
	if err != nil {
		return nil, err
	}
	inner, err := sched.Parse("cluster:uniform")
	if err != nil {
		return nil, err
	}
	src := traceSource(w.fleet, tr)
	cfg := core.Config{
		Rounds:         w.rounds,
		LocalEpochs:    w.env.Dims.LocalEpochs,
		LR:             clientLR,
		Momentum:       clientMomentum,
		FinetunePart:   models.FinetuneFull,
		Selector:       traceSelector(selection.Entropy{Temperature: edsTemperature}, tr, 0, 1, w.env.Dims.LocalEpochs),
		SelectFraction: edsFraction,
		Scheduler:      traceScheduler(trace.Scheduler(inner), tr),
		CohortSize:     fleetCohort,
		Strategy:       clockStrategy(strategy.FedAvg(), tr),
		Seed:           tensor.DeriveSeed(uint64(w.seed), uint64(w.fleet.NumClients()), 0xF1EE7DA1),
	}
	runner, err := core.NewRunnerWithSource(cfg, global, src, w.test)
	if err != nil {
		return nil, err
	}
	takeDescribes(src) // NewRunnerWithSource validates every descriptor once
	before := w.fleet.Stats()
	start := tr.now()
	hist, err := runner.RunFleetAsync(core.FleetAsyncConfig{
		AsyncConfig: core.AsyncConfig{Buffer: fleetBuffer, MaxStaleness: -1},
	})
	end := tr.now()
	if err != nil {
		return nil, err
	}
	if err := ep.finish(tr, start, end, hist, global); err != nil {
		return nil, err
	}
	after := w.fleet.Stats()
	mats, hits := after.Materializations-before.Materializations, after.Hits-before.Hits
	ep.stats = map[string]float64{
		"fleet.materializations": float64(mats),
		"fleet.hits":             float64(hits),
		"core.describe_calls":    float64(takeDescribes(src)),
	}
	ep.wireBytes = hist.TotalUplinkBytes + hist.TotalDownlinkBytes
	for _, r := range hist.Records {
		ep.attempted += r.CohortSize
		ep.failed += r.CohortSize - r.Participants
	}
	ep.evalAcc, ep.evalMs, err = timedAccuracy(global, w.test)
	return ep, err
}
