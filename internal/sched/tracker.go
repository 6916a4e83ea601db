package sched

import (
	"fmt"
	"math"
	"sort"
)

// Tracker accumulates the per-client utility feedback the server observes
// over a run: each completed round, a participant's reported mean EDS
// entropy (or its train loss where entropy is unavailable) replaces the
// client's stored utility. It is the feedback half of the EntropyUtility
// loop — candidates are stamped with the latest stored value, clients never
// heard from stay unscored and are handled by exploration.
//
// A Tracker is not safe for concurrent use; the round loop is sequential in
// both the simulator and the distributed server.
type Tracker struct {
	util    map[int]float64
	seconds map[int]float64
}

// NewTracker returns an empty feedback store.
func NewTracker() *Tracker {
	return &Tracker{util: make(map[int]float64), seconds: make(map[int]float64)}
}

// Observe records one client's reported utility and round seconds. NaN
// utilities are ignored (the client ran a selector with no utility signal
// and no loss was reported either); NaN seconds are ignored likewise.
func (t *Tracker) Observe(clientID int, utility, seconds float64) {
	if !math.IsNaN(utility) {
		t.util[clientID] = utility
	}
	if !math.IsNaN(seconds) {
		t.seconds[clientID] = seconds
	}
}

// ObserveUpdate records one completed round's feedback with the shared
// fallback rule: the utility is the reported mean EDS entropy, or the train
// loss when the client's selector has no entropy signal (NaN). Both the
// simulator and the distributed server feed the loop through this method,
// so the two paths cannot drift apart.
func (t *Tracker) ObserveUpdate(clientID int, meanEntropy, trainLoss, seconds float64) {
	u := meanEntropy
	if math.IsNaN(u) {
		u = trainLoss
	}
	t.Observe(clientID, u, seconds)
}

// ObserveTimeout records that a client blew the round deadline: its round
// seconds are at least the deadline, which keeps time-driven policies
// (PowerOfD) from treating a perpetually hung client — who never reports
// and would otherwise keep its optimistic zero — as the fastest candidate.
func (t *Tracker) ObserveTimeout(clientID int, deadlineSeconds float64) {
	if deadlineSeconds <= 0 {
		return
	}
	if deadlineSeconds > t.seconds[clientID] {
		t.seconds[clientID] = deadlineSeconds
	}
}

// Utility returns the client's last stored utility and whether one exists.
func (t *Tracker) Utility(clientID int) (float64, bool) {
	u, ok := t.util[clientID]
	return u, ok
}

// Seconds returns the client's last observed round seconds (zero before
// first contact) — the distributed server's ProjectedSeconds source.
func (t *Tracker) Seconds(clientID int) float64 { return t.seconds[clientID] }

// Stamp fills each candidate's Utility/HasUtility from the store, leaving
// the other fields untouched. The pool must be in strictly ascending
// ClientID order — Runner.schedule builds it by pool position and the
// distributed server from its sorted live client IDs — and Stamp panics
// otherwise. Every candidate is cleared in one pass and each stored utility
// is placed by binary search: O(n + m log n) for m stored clients instead
// of a map lookup per candidate, which dominates at fleet scale (n = 1e5
// candidates, m ≈ 1e3 stored).
func (t *Tracker) Stamp(cands []Candidate) {
	for i := range cands {
		if i > 0 && cands[i].ClientID <= cands[i-1].ClientID {
			panic(fmt.Sprintf("sched: Stamp needs ascending client IDs, got %d after %d",
				cands[i].ClientID, cands[i-1].ClientID))
		}
		cands[i].Utility, cands[i].HasUtility = 0, false
	}
	for id, u := range t.util {
		j := sort.Search(len(cands), func(j int) bool { return cands[j].ClientID >= id })
		if j < len(cands) && cands[j].ClientID == id {
			cands[j].Utility, cands[j].HasUtility = u, true
		}
	}
}

// Export returns copies of the stored utility and round-seconds maps — the
// tracker's complete state, exactly what a run checkpoint must carry so the
// EntropyUtility feedback loop resumes where it left off.
func (t *Tracker) Export() (util, seconds map[int]float64) {
	util = make(map[int]float64, len(t.util))
	for k, v := range t.util {
		util[k] = v
	}
	seconds = make(map[int]float64, len(t.seconds))
	for k, v := range t.seconds {
		seconds[k] = v
	}
	return util, seconds
}

// Restore replaces the tracker's state with copies of the given maps,
// reversing Export. Nil maps clear the store.
func (t *Tracker) Restore(util, seconds map[int]float64) {
	t.util = make(map[int]float64, len(util))
	for k, v := range util {
		t.util[k] = v
	}
	t.seconds = make(map[int]float64, len(seconds))
	for k, v := range seconds {
		t.seconds[k] = v
	}
}
