package experiments

import (
	"strings"
	"testing"
)

// TestRunFleetDaySmoke runs the simulated day over a small virtual fleet:
// 24 hourly aggregations, trace-driven availability, cluster scheduling, and
// pool residency bounded by the pool size rather than the population.
func TestRunFleetDaySmoke(t *testing.T) {
	env, err := NewEnv(ScaleSmoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFleetDay(env, FleetOptions{Clients: 64, Cohort: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hist.Records) != fleetDayRounds {
		t.Fatalf("%d records, want %d", len(res.Hist.Records), fleetDayRounds)
	}
	if res.Stats.PeakResident > 3*4 {
		t.Fatalf("peak residency %d over a 64-client fleet: pool not bounded", res.Stats.PeakResident)
	}
	if !strings.Contains(res.Policy, "trace[") || !strings.Contains(res.Policy, "cluster:uniform") {
		t.Fatalf("policy %q: want trace-wrapped cluster sampling", res.Policy)
	}
	out := res.Render()
	for _, want := range []string{"Virtual-fleet day", "fleet fingerprint", "pool:", "best "} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRunFleetDayResumes pins the artifact-store discipline on the
// source-backed path: a re-launched day with Resume reloads the stored run
// and reproduces its history exactly.
func TestRunFleetDayResumes(t *testing.T) {
	opts := FleetOptions{Clients: 48, Cohort: 4}
	dir := t.TempDir()

	env, err := NewEnv(ScaleSmoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.SetCheckpointPolicy(CheckpointPolicy{Dir: dir, Every: 1}); err != nil {
		t.Fatal(err)
	}
	first, err := RunFleetDay(env, opts)
	if err != nil {
		t.Fatal(err)
	}

	env2, err := NewEnv(ScaleSmoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := env2.SetCheckpointPolicy(CheckpointPolicy{Dir: dir, Every: 1, Resume: true}); err != nil {
		t.Fatal(err)
	}
	second, err := RunFleetDay(env2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Hist.Records) != len(first.Hist.Records) ||
		second.Hist.FinalAccuracy != first.Hist.FinalAccuracy ||
		second.Hist.TotalTrainSeconds != first.Hist.TotalTrainSeconds {
		t.Fatalf("resumed day diverged:\nfirst:  %+v\nsecond: %+v", first.Hist, second.Hist)
	}
	// The resumed run reloaded the finished day: nothing trained, so at most
	// the descriptors were rebuilt and no cohort was ever materialized.
	if second.Stats.Materializations != 0 {
		t.Fatalf("resumed finished day materialized %d clients", second.Stats.Materializations)
	}
}

// TestRunFleetDayAsync exercises the buffered-async day end to end.
func TestRunFleetDayAsync(t *testing.T) {
	env, err := NewEnv(ScaleSmoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFleetDay(env, FleetOptions{Clients: 64, Cohort: 6, Buffer: 3, MaxStaleness: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Async || len(res.Hist.Records) != fleetDayRounds {
		t.Fatalf("async day: async=%v records=%d", res.Async, len(res.Hist.Records))
	}
	for _, rec := range res.Hist.Records {
		if rec.Participants != 3 {
			t.Fatalf("aggregation %d folded %d updates, want buffer 3", rec.Round, rec.Participants)
		}
	}
}

// TestRunFleetDayEagerMatchesLazy pins the CLI-facing contrast pair: the
// eager baseline and the fleet-backed day produce identical histories, on
// the synchronous engine and on the buffered-async one.
func TestRunFleetDayEagerMatchesLazy(t *testing.T) {
	env, err := NewEnv(ScaleSmoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []FleetOptions{
		{Clients: 48, Cohort: 4},
		{Clients: 18, Buffer: 3, MaxStaleness: 2},
	} {
		lazy, err := RunFleetDay(env, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Eager = true
		eager, err := RunFleetDay(env, opts)
		if err != nil {
			t.Fatal(err)
		}
		if histDigest(lazy.Hist) != histDigest(eager.Hist) {
			t.Fatalf("eager baseline diverged from fleet-backed day (buffer %d):\nlazy:  %+v\neager: %+v",
				opts.Buffer, lazy.Hist, eager.Hist)
		}
	}
}

// TestRunFleetCompareSmoke runs the policy sweep over one virtual fleet.
func TestRunFleetCompareSmoke(t *testing.T) {
	env, err := NewEnv(ScaleSmoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFleetCompare(env, FleetOptions{Clients: 48, Cohort: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Hist.Records) != env.Dims.Rounds {
			t.Fatalf("%s: %d records, want %d", row.Policy, len(row.Hist.Records), env.Dims.Rounds)
		}
		if row.Stats.Materializations == 0 {
			t.Fatalf("%s: no lazy materializations recorded", row.Policy)
		}
	}
	if !strings.Contains(res.Render(), "Virtual-fleet policy comparison") {
		t.Fatalf("render: %s", res.Render())
	}
}
