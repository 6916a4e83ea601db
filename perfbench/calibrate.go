package main

import (
	"sort"
	"time"
)

// Speed reference. The machine this benchmark was built on is shared and its
// speed drifts: within a run, rounds switch between a fast state and one about
// 1.5× slower, and over minutes the mix moved the same code's round times by
// up to 1.6× between runs. The benchmark therefore runs a fixed reference
// kernel next to every measured interval, outside the interval's time, and
// reports times at reference speed:
//
//	round time at reference speed = round time × refNominalMs / the reference
//	run right after the round's ApplyAggregate
//	setup_s at reference speed    = median setup time × refNominalMs /
//	median(the setupRefRuns reference runs right before and after each setup)
//
// Pairing each interval with reference runs taken next to it cancels a
// change of state during the run. A reference run that the host stalls only
// shrinks one round among hundreds, which the medians and the p90 barely
// see, and the setups' median over 50 runs is not moved by it. Measured
// against scaling everything by the run's median reference time, over 10
// seeds: the quartile spread of fleet-day's round_tail_ms fell from 0.10 to
// 0.03 and tcp-loopback's rounds_per_s from 0.06 to 0.04, while the other
// round metrics stayed within 0.02; tcp-loopback's setup_s fell from
// 0.29-0.34 to 0.09. The kernel is plain Go that no change to the program
// touches, so a faster program still reports faster times; what cancels is
// the machine's drift. The raw times stay in the run's record.

// refNominalMs is the kernel's typical time on the machine the benchmark was
// built on (Intel Xeon, AVX-512, 2 vCPUs); it only sets the scale of the
// reported times.
const refNominalMs = 5.5

// refKernel sorts a copy of a fixed pseudo-random slice of 50k ints with the
// standard library. It was chosen by how closely its time follows the
// program's as the machine drifts. Over two 40-60 s runs of each workload,
// the log-log slope of a round's time (relative to the same round in other
// episodes) on the kernel's time right after it was 0.57-1.14 for this sort
// and 0.19-0.56 for a small plain-Go dense product; a 16 MiB streaming update
// and small allocations fell in between or below. Scaling by the dense
// product's median widened the spread of episode times in three of the six
// runs; scaling by the sort's narrowed it in all six, by up to 3.8×.
func refKernel() {
	copy(refBuf, refInput)
	sort.Ints(refBuf)
}

var refInput, refBuf = refData(50000)

// setupRefRuns is how many reference runs are taken right before and right
// after each setup.
const setupRefRuns = 5

// refSamples runs the kernel n times and returns each run's time in ms.
func refSamples(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		refKernel()
		out[i] = float64(time.Since(t0)) / 1e6
	}
	return out
}

func refData(n int) (in, buf []int) {
	in = make([]int, n)
	x := uint64(1)
	for i := range in {
		x = x*6364136223846793005 + 1442695040888963407
		in[i] = int(x >> 33)
	}
	return in, make([]int, n)
}

// overlap returns how much of [lo, hi) the intervals cover; they must not
// overlap each other.
func overlap(lo, hi int64, ivs []span) int64 {
	var n int64
	for _, s := range ivs {
		if a, b := max(s.start, lo), min(s.end, hi); b > a {
			n += b - a
		}
	}
	return n
}
