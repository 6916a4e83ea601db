package fleet_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedfteds/internal/core"
	"fedfteds/internal/fleet"
	"fedfteds/internal/models"
	"fedfteds/internal/sched"
)

// runDigest hashes every RoundRecord, the History totals and the final model
// state bit for bit.
func runDigest(h core.History, m *models.Model) string {
	d := sha256.New()
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
	d.Write(buf)
	return fmt.Sprintf("%x", d.Sum(nil)[:12])
}

// TestGoldenFleetAsyncClusterTrace pins the exact History and final model of
// a clustered, trace-driven buffered-async fleet run (Buffer < CohortSize, so
// every refill schedules around in-flight clients). The determinism tests
// only compare two runs with each other; this digest also changes when the
// scheduler's candidate set, rng consumption or cost projection drifts.
func TestGoldenFleetAsyncClusterTrace(t *testing.T) {
	spec, test, build := fixture(t, 30)
	spec.Alpha = 0.1
	spec.Clusters = 3
	f, err := fleet.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := fleet.ParseTrace(fleet.DiurnalTraceText(30))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleetCfg(14, 8)
	cfg.Scheduler = tr.Scheduler(sched.ClusterSampling{Inner: sched.UniformRandom{}})
	cfg.EvalEvery = 7
	m := build()
	r, err := core.NewRunnerWithSource(cfg, m, f, test)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := r.RunFleetAsync(core.FleetAsyncConfig{
		AsyncConfig: core.AsyncConfig{Buffer: 3, MaxStaleness: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "9471697729a6b43010f999d9"
	if got := runDigest(hist, m); got != want {
		t.Fatalf("run digest %s, want %s", got, want)
	}
}
