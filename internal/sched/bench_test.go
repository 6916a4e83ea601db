package sched

// Cohort-sampling benchmarks at federation scale: N = 1e5 candidates,
// K = 1000 cohort slots — the regime the ROADMAP's millions-of-users server
// must sustain once per round. Results feed BENCH_sched.json.

import (
	"math/rand"
	"testing"
)

const (
	benchN = 100_000
	benchK = 1_000
)

// benchCandidates builds the N=1e5 candidate pool once per benchmark.
func benchCandidates() []Candidate {
	rng := rand.New(rand.NewSource(42))
	out := make([]Candidate, benchN)
	for i := range out {
		out[i] = Candidate{
			ClientID:         i,
			DataSize:         50 + rng.Intn(500),
			ProjectedSeconds: 1 + 10*rng.Float64(),
			Utility:          rng.Float64(),
			HasUtility:       rng.Intn(4) != 0,
			Available:        true,
		}
	}
	return out
}

// benchSchedule times one Schedule call per iteration.
func benchSchedule(b *testing.B, s Scheduler) {
	b.Helper()
	cands := benchCandidates()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cohort := s.Schedule(i+1, cands, benchK, rng)
		if len(cohort) == 0 {
			b.Fatal("empty cohort")
		}
	}
}

func BenchmarkUniformRandom100k(b *testing.B)  { benchSchedule(b, UniformRandom{}) }
func BenchmarkSizeWeighted100k(b *testing.B)   { benchSchedule(b, SizeWeighted{}) }
func BenchmarkEntropyUtility100k(b *testing.B) { benchSchedule(b, EntropyUtility{}) }
func BenchmarkPowerOfD100k(b *testing.B)       { benchSchedule(b, PowerOfD{}) }
func BenchmarkAvailability100k(b *testing.B) {
	benchSchedule(b, &Availability{Inner: UniformRandom{}, DownProb: 0.1, UpProb: 0.3})
}

// Fleet-shaped scheduling: the perfbench fleet-day policy, trace-driven
// availability over cluster-stratified uniform sampling, at N = 1e5
// candidates in 8 similarity clusters with a K = 64 window refill.
const (
	fleetBenchClusters = 8
	fleetBenchK        = 64
)

// clusteredBenchCandidates is benchCandidates spread over 8 clusters of
// unequal size.
func clusteredBenchCandidates() []Candidate {
	cands := benchCandidates()
	rng := rand.New(rand.NewSource(43))
	for i := range cands {
		// Squaring skews the draw toward low cluster indices.
		u := rng.Float64()
		cands[i].Cluster = int(u * u * fleetBenchClusters)
	}
	return cands
}

// diurnalTrace mirrors fleet.DiurnalTraceText(n): a 24-slot day in which the
// first third of clients is down during slots 0-7 and the middle third
// during slots 12-19.
func diurnalTrace(n int) func(round, clientID int) bool {
	third := n / 3
	return func(round, clientID int) bool {
		slot := (round - 1) % 24
		switch {
		case clientID < third:
			return slot > 7
		case clientID < 2*third:
			return slot < 12 || slot > 19
		}
		return true
	}
}

// clusterTraceScheduler is the fleet-day policy over an n-client trace.
func clusterTraceScheduler(n int) *Availability {
	return &Availability{Inner: ClusterSampling{Inner: UniformRandom{}}, Trace: diurnalTrace(n), TraceName: "diurnal"}
}

func BenchmarkClusterTrace100k(b *testing.B) {
	cands := clusteredBenchCandidates()
	s := clusterTraceScheduler(len(cands))
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cohort := s.Schedule(i+1, cands, fleetBenchK, rng); len(cohort) != fleetBenchK {
			b.Fatalf("cohort of %d, want %d", len(cohort), fleetBenchK)
		}
	}
}
