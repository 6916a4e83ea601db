package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"fedfteds/internal/models"
	"fedfteds/internal/simtime"
	"fedfteds/internal/strategy"
)

// sameRecord compares two round records field by field, treating NaN
// accuracies as equal.
func sameRecord(a, b RoundRecord) bool {
	accEq := a.TestAccuracy == b.TestAccuracy ||
		(math.IsNaN(a.TestAccuracy) && math.IsNaN(b.TestAccuracy))
	return a.Round == b.Round && a.CohortSize == b.CohortSize &&
		a.SchedPolicy == b.SchedPolicy && a.Participants == b.Participants &&
		accEq && a.MeanTrainLoss == b.MeanTrainLoss &&
		a.CumTrainSeconds == b.CumTrainSeconds && a.CumUplinkBytes == b.CumUplinkBytes
}

// asyncCase is one buffered-async configuration over the eager test
// federation: n clients (tune adjusts their devices), a Config without a
// scheduler — so RunFleetAsync's window is the whole population — and the
// buffer settings.
type asyncCase struct {
	n    int
	tune func([]*Client)
	cfg  Config
	acfg AsyncConfig
}

var (
	// asyncFullBuffer buffers the whole pool with no discount: the
	// configuration that must replay the synchronous engine.
	asyncFullBuffer = asyncCase{
		n:    5,
		cfg:  Config{Rounds: 4, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, Seed: 33},
		acfg: AsyncConfig{Buffer: 5, MaxStaleness: -1, Weigher: strategy.IdentityStaleness()},
	}
	// asyncPartialBuffer has a 4x device-speed spread (clients 0-2 fast, 3-5
	// slower) and a buffer of half the pool, so fast clients lap slow ones.
	asyncPartialBuffer = asyncCase{
		n: 6,
		tune: func(clients []*Client) {
			for i, cl := range clients {
				cl.Device = simtime.Device{FLOPSRate: 1e9 / float64(1+i/3*3)}
			}
		},
		cfg:  Config{Rounds: 8, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, Seed: 7},
		acfg: AsyncConfig{Buffer: 3, MaxStaleness: -1, Weigher: strategy.InvSqrtStaleness()},
	}
	// asyncStrictStaleness caps staleness at 0 with a 10x slower straggler.
	asyncStrictStaleness = asyncCase{
		n:    5,
		tune: func(clients []*Client) { clients[4].Device = simtime.Device{FLOPSRate: 1e8} },
		cfg:  Config{Rounds: 10, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, Seed: 9},
		acfg: AsyncConfig{Buffer: 2, MaxStaleness: 0, Weigher: strategy.IdentityStaleness()},
	}
	// asyncParallel trains on four workers with one half-speed client.
	asyncParallel = asyncCase{
		n:    4,
		tune: func(clients []*Client) { clients[0].Device = simtime.Device{FLOPSRate: 5e8} },
		cfg:  Config{Rounds: 4, LocalEpochs: 1, LR: 0.1, Momentum: 0.5, Seed: 42, Parallelism: 4},
		acfg: AsyncConfig{Buffer: 2, MaxStaleness: -1, Weigher: strategy.InvSqrtStaleness()},
	}
)

// runner builds the case's federation and a fresh global model.
func (c asyncCase) runner(t *testing.T) (*Runner, *models.Model) {
	t.Helper()
	clients, _, test, spec := testFederation(t, c.n, 0.5)
	if c.tune != nil {
		c.tune(clients)
	}
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(c.cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	return r, m
}

// run executes the case on the buffered-async engine.
func (c asyncCase) run(t *testing.T) (History, *models.Model) {
	t.Helper()
	r, m := c.runner(t)
	h, err := r.RunFleetAsync(FleetAsyncConfig{AsyncConfig: c.acfg})
	if err != nil {
		t.Fatal(err)
	}
	return h, m
}

// runDigest hashes every RoundRecord, the History totals and the final model
// state bit for bit.
func runDigest(h History, m *models.Model) string {
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for _, r := range h.Records {
		u64(uint64(r.Round))
		u64(uint64(r.CohortSize))
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
		for _, v := range t.Data() {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	sum := sha256.Sum256(buf)
	return fmt.Sprintf("%x", sum[:12])
}

// TestGoldenAsyncRuns pins the exact History and final model of the four
// full-population buffered-async configurations below. The digests were
// recorded from the eager-pool engine that preceded the windowed one, so
// they also pin that a nil-scheduler window replays it bit for bit.
func TestGoldenAsyncRuns(t *testing.T) {
	for _, tt := range []struct {
		name string
		c    asyncCase
		want string
	}{
		{"full buffer", asyncFullBuffer, "2caddf6a8991c36e4fa713b3"},
		{"partial buffer invsqrt", asyncPartialBuffer, "36ab1ef6dc50db332baca0e4"},
		{"max staleness 0", asyncStrictStaleness, "acdb26918eca829a871723c8"},
		{"parallelism 4", asyncParallel, "f51ba496d96783f95da71d14"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			h, m := tt.c.run(t)
			if got := runDigest(h, m); got != tt.want {
				t.Fatalf("run digest %s, want %s", got, tt.want)
			}
		})
	}
}

// TestAsyncFullBufferBitIdenticalToSync is the simulator half of the
// sync/async equivalence gate: a buffer the size of the pool with the
// identity staleness weigher must replay the synchronous engine bit for bit —
// every history field and every final model parameter.
func TestAsyncFullBufferBitIdenticalToSync(t *testing.T) {
	rs, ms := asyncFullBuffer.runner(t)
	syncHist, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	asyncHist, ma := asyncFullBuffer.run(t)

	if len(asyncHist.Records) != len(syncHist.Records) {
		t.Fatalf("%d async records, %d sync", len(asyncHist.Records), len(syncHist.Records))
	}
	for i := range syncHist.Records {
		if !sameRecord(syncHist.Records[i], asyncHist.Records[i]) {
			t.Fatalf("record %d diverged:\nsync  %+v\nasync %+v",
				i+1, syncHist.Records[i], asyncHist.Records[i])
		}
	}
	if syncHist.BestAccuracy != asyncHist.BestAccuracy ||
		syncHist.FinalAccuracy != asyncHist.FinalAccuracy ||
		syncHist.TotalTrainSeconds != asyncHist.TotalTrainSeconds ||
		syncHist.TotalUplinkBytes != asyncHist.TotalUplinkBytes ||
		syncHist.TotalDownlinkBytes != asyncHist.TotalDownlinkBytes {
		t.Fatalf("history totals diverged:\nsync  %+v\nasync %+v", syncHist, asyncHist)
	}

	st, at := ms.StateTensors(), ma.StateTensors()
	if len(st) != len(at) {
		t.Fatalf("%d sync state tensors, %d async", len(st), len(at))
	}
	for ti := range st {
		sd, ad := st[ti].Data(), at[ti].Data()
		for k := range sd {
			if sd[k] != ad[k] {
				t.Fatalf("state tensor %d diverged at element %d: sync %v async %v",
					ti, k, sd[k], ad[k])
			}
		}
	}
}

// TestAsyncPartialBufferAggregatesStale exercises the genuinely asynchronous
// regime: a pool with a 4x device-speed spread and a buffer smaller than the
// pool. Fast clients lap slow ones, so some folded updates must be stale,
// every aggregation must still fold exactly Buffer updates, and the run must
// still learn.
func TestAsyncPartialBufferAggregatesStale(t *testing.T) {
	hist, _ := asyncPartialBuffer.run(t)
	if len(hist.Records) != 8 {
		t.Fatalf("%d records, want 8", len(hist.Records))
	}
	for i, rec := range hist.Records {
		if rec.Participants != 3 {
			t.Fatalf("aggregation %d folded %d updates, want buffer size 3", i+1, rec.Participants)
		}
	}
	if hist.FinalAccuracy <= 0.2 {
		t.Fatalf("async run did not learn: final accuracy %v", hist.FinalAccuracy)
	}
}

// TestAsyncMaxStalenessDiscards pins the discard path: with a strict
// staleness cap and a slow minority, some updates must be dropped (visible as
// CohortSize > Participants) while every aggregation still folds a full
// buffer.
func TestAsyncMaxStalenessDiscards(t *testing.T) {
	hist, _ := asyncStrictStaleness.run(t)
	discards := 0
	for i, rec := range hist.Records {
		if rec.Participants != 2 {
			t.Fatalf("aggregation %d folded %d updates, want 2", i+1, rec.Participants)
		}
		discards += rec.CohortSize - rec.Participants
	}
	if discards == 0 {
		t.Fatal("staleness cap 0 with a 10x straggler discarded nothing")
	}
}

// TestAsyncDeterministicAcrossParallelism: the event-queue schedule and the
// fold order are independent of the training worker pool size.
func TestAsyncDeterministicAcrossParallelism(t *testing.T) {
	serial := asyncParallel
	serial.cfg.Parallelism = 1
	h1, _ := serial.run(t)
	h4, _ := asyncParallel.run(t)
	if len(h1.Records) != len(h4.Records) {
		t.Fatalf("%d vs %d records", len(h1.Records), len(h4.Records))
	}
	for i := range h1.Records {
		if !sameRecord(h1.Records[i], h4.Records[i]) {
			t.Fatalf("aggregation %d diverged across parallelism:\nserial   %+v\nparallel %+v",
				i+1, h1.Records[i], h4.Records[i])
		}
	}
}

// TestAsyncConfigRejections pins the fail-fast surface of the
// full-population window: settings async mode replaces or cannot simulate
// are refused before any client trains.
func TestAsyncConfigRejections(t *testing.T) {
	clients, _, test, spec := testFederation(t, 3, 0.5)
	m, err := models.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Rounds: 2, LocalEpochs: 1, LR: 0.1, Seed: 1}
	ok := AsyncConfig{Buffer: 2, MaxStaleness: -1}

	tests := []struct {
		name   string
		mutate func(*Config)
		acfg   AsyncConfig
	}{
		{name: "zero buffer", mutate: func(c *Config) {}, acfg: AsyncConfig{Buffer: 0}},
		{name: "buffer exceeds pool", mutate: func(c *Config) {}, acfg: AsyncConfig{Buffer: 4}},
		{name: "straggler policy", mutate: func(c *Config) {
			c.Straggler = simtime.DeadlineStraggler{DeadlineSeconds: 1}
		}, acfg: ok},
		{name: "checkpointing", mutate: func(c *Config) {
			c.CheckpointDir = t.TempDir()
			c.CheckpointEvery = 1
		}, acfg: ok},
		{name: "codec", mutate: func(c *Config) { c.Codec = "float16" }, acfg: ok},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			r, err := NewRunner(cfg, m, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.RunFleetAsync(FleetAsyncConfig{AsyncConfig: tt.acfg}); !errors.Is(err, ErrConfig) {
				t.Fatalf("expected ErrConfig, got %v", err)
			}
		})
	}
}
