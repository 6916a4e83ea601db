package sched

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"fedfteds/internal/tensor"
)

// Golden cohort hashes. The determinism tests elsewhere only check that two
// runs agree, so a change in how a policy consumes its rng would pass them;
// these pin the exact cohort sequences instead. A hash changes only when
// cohorts change — which breaks every seeded run and must be deliberate.

// goldenPool builds n candidates spread unevenly over the given cluster ids
// and three tiers, two thirds of them scored, with every fifth client marked
// unavailable by the caller.
func goldenPool(n int, clusters []int) []Candidate {
	cands := make([]Candidate, n)
	for i := range cands {
		cl := clusters[0]
		if len(clusters) > 1 {
			cl = clusters[(i*i+i/7)%len(clusters)]
		}
		cands[i] = Candidate{
			ClientID:         i,
			DataSize:         10 + i%23,
			ProjectedSeconds: float64(1 + i%11),
			Utility:          float64(i*7%13) / 13,
			HasUtility:       i%3 != 0,
			Available:        i%5 != 4,
			Tier:             []string{"low", "mid", "full"}[i*i%7%3],
			Cluster:          cl,
		}
	}
	return cands
}

// opaque hides a policy's subset entry point, so the wrappers take the copy
// path they keep for policies from outside the package.
type opaque struct{ Scheduler }

// cohortHash runs s for rounds rounds over the same pool, each round seeded
// as the simulator seeds it, and hashes the cohort sequence.
func cohortHash(s Scheduler, cands []Candidate, rounds, k int) string {
	h := fnv.New64a()
	var buf []byte
	for round := 1; round <= rounds; round++ {
		cohort := s.Schedule(round, cands, k, tensor.NewRand(77, uint64(round), StreamTag))
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(cohort)))
		for _, id := range cohort {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGoldenCohorts(t *testing.T) {
	sparse := []int{0, 3, 7}
	trace := func(round, id int) bool { return (round+id)%4 != 0 && (id/50+round)%6 != 1 }
	allDownInRound3 := func(round, id int) bool { return round != 3 && id%2 == 0 }
	cases := []struct {
		name  string
		s     Scheduler
		cands []Candidate
		k     int
		want  string
	}{
		{"uniform", UniformRandom{}, goldenPool(600, sparse), 24, "6c6370907fac3044"},
		{"entropy", EntropyUtility{}, goldenPool(600, sparse), 24, "65a86736e38c7114"},
		{"powerd", PowerOfD{}, goldenPool(600, sparse), 24, "c2b069defc774c39"},
		{"tier", TierBalanced{}, goldenPool(600, sparse), 24, "8e64dfef6081d1b0"},
		{"cluster:uniform/sparse-ids", ClusterSampling{}, goldenPool(600, sparse), 24, "5c690b92393fbe3a"},
		{"cluster:opaque-uniform/sparse-ids", ClusterSampling{Inner: opaque{UniformRandom{}}}, goldenPool(600, sparse), 24, "5c690b92393fbe3a"},
		{"cluster:size/sparse-ids", ClusterSampling{Inner: SizeWeighted{}}, goldenPool(600, sparse), 24, "2157e5774c4bcffa"},
		{"cluster:uniform/wide-ids", ClusterSampling{}, goldenPool(600, []int{9, -5, 1 << 40}), 24, "bd498caa929a6737"},
		{"cluster:uniform/single-cluster", ClusterSampling{}, goldenPool(300, []int{3}), 16, "19d6d967ccd021e9"},
		{"trace:cluster:uniform", &Availability{Inner: ClusterSampling{}, Trace: trace}, goldenPool(600, sparse), 24, "f6d45c9b3127affa"},
		{"trace-all-down:cluster:uniform", &Availability{Inner: ClusterSampling{}, Trace: allDownInRound3}, goldenPool(600, sparse), 24, "2903b500eabf0df0"},
		{"avail:cluster:uniform", &Availability{Inner: ClusterSampling{}, DownProb: 0.2, UpProb: 0.3}, goldenPool(600, sparse), 24, "d657aec47fde54ae"},
		// Policies outside the package see masked copies of the pool, and
		// must draw the same cohorts as the in-place paths.
		{"cluster:opaque-uniform/single-cluster", ClusterSampling{Inner: opaque{UniformRandom{}}}, goldenPool(300, []int{3}), 16, "19d6d967ccd021e9"},
		{"trace-all-down:opaque-cluster:uniform", &Availability{Inner: opaque{ClusterSampling{}}, Trace: allDownInRound3}, goldenPool(600, sparse), 24, "2903b500eabf0df0"},
		{"avail:opaque-cluster:uniform", &Availability{Inner: opaque{ClusterSampling{}}, DownProb: 0.2, UpProb: 0.3}, goldenPool(600, sparse), 24, "d657aec47fde54ae"},
	}
	for _, tc := range cases {
		if got := cohortHash(tc.s, tc.cands, 8, tc.k); got != tc.want {
			t.Errorf("%s: cohort hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
