package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark (or one of its decorators) into
// a module's public function.
type span struct {
	name string
	// lane is 0 for the orchestrating goroutine and the simulator's worker
	// pool, and i+1 for the goroutine of TCP client i.
	lane int
	// depth is the static nesting level of the call: a deeper span takes the
	// wall time it shares with the shallower span that encloses it.
	depth      int
	start, end int64 // ns since the tracer's origin
}

// tracer collects the spans and counters of one episode. With full unset it
// only records round boundaries, which is what the untraced runs need.
type tracer struct {
	full   bool
	origin time.Time

	mu     sync.Mutex
	spans  []span
	marks  []int64 // end of every ApplyAggregate call, one per round
	refs   []span  // speed-reference runs, excluded from the rounds' time
	counts map[string]float64
}

func newTracer(full bool) *tracer {
	return &tracer{full: full, origin: time.Now(), counts: map[string]float64{}}
}

// The methods below accept a nil tracer, which stands for a run without any
// decorator (the reference the transparency test compares against).

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// record closes a span opened at start and returns its end time.
func (t *tracer) record(name string, lane, depth int, start int64) int64 {
	end := t.now()
	if t == nil || !t.full {
		return end
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, lane: lane, depth: depth, start: start, end: end})
	t.mu.Unlock()
	return end
}

// mark records a round boundary at time at.
func (t *tracer) mark(at int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.marks = append(t.marks, at)
	t.mu.Unlock()
}

// reference runs the speed-reference kernel and records when it ran.
func (t *tracer) reference() {
	if t == nil {
		return
	}
	start := t.now()
	refKernel()
	end := t.now()
	t.mu.Lock()
	t.refs = append(t.refs, span{start: start, end: end})
	t.mu.Unlock()
}

func (t *tracer) count(name string, v float64) {
	if t == nil || !t.full {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// roundBounds turns the ApplyAggregate marks of a run that started at start
// and returned at end into round windows: round k runs from the end of
// aggregation k-1 (or the start) to the end of aggregation k, and the last
// round runs to the end, so it also holds the final evaluation. It returns
// false when the marks do not match the number of rounds.
func roundBounds(start, end int64, marks []int64, rounds int) ([]int64, bool) {
	if len(marks) != rounds || rounds == 0 {
		return nil, false
	}
	b := make([]int64, 0, rounds+1)
	b = append(b, start)
	b = append(b, marks[:rounds-1]...)
	b = append(b, end)
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			return nil, false
		}
	}
	return b, true
}

// breakdown is the per-layer view of a set of traced rounds.
type breakdown struct {
	rounds int
	wallMs float64
	// attribMs is each span name's share of the round wall time: at every
	// instant the deepest active spans split the time equally, so the
	// shares plus selfMs add up to wallMs by construction.
	attribMs map[string]float64
	// busyMs and calls are the plain span durations and call counts.
	busyMs map[string]float64
	calls  map[string]int
	// selfMs is the round time no span covers: work inside the engine
	// between the traced calls.
	selfMs float64
	// laneBusyMs is, per client lane, the time any of its spans is active.
	laneBusyMs map[int]float64
	// outsideMs is span time that falls outside every round window.
	outsideMs float64
}

func newBreakdown() *breakdown {
	return &breakdown{attribMs: map[string]float64{}, busyMs: map[string]float64{},
		calls: map[string]int{}, laneBusyMs: map[int]float64{}}
}

// add folds one episode's spans, split at the round bounds, into b. The
// refs intervals are not part of any round.
func (b *breakdown) add(bounds []int64, spans, refs []span) {
	const ms = 1e6
	var spanTotal, inside float64
	for _, s := range spans {
		b.busyMs[s.name] += float64(s.end-s.start) / ms
		b.calls[s.name]++
		spanTotal += float64(s.end - s.start)
	}
	type event struct {
		at   int64
		open bool
		idx  int
	}
	var evs []event
	var active []int
	for r := 1; r < len(bounds); r++ {
		lo, hi := bounds[r-1], bounds[r]
		evs = evs[:0]
		for i, s := range spans {
			if s.end <= lo || s.start >= hi {
				continue
			}
			evs = append(evs, event{max(s.start, lo), true, i}, event{min(s.end, hi), false, i})
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].at != evs[j].at {
				return evs[i].at < evs[j].at
			}
			return !evs[i].open && evs[j].open
		})
		var union float64
		active = active[:0]
		prev := lo
		for _, e := range evs {
			if dt := float64(e.at - prev); dt > 0 && len(active) > 0 {
				deepest := 0
				for _, i := range active {
					deepest = max(deepest, spans[i].depth)
				}
				var top []int
				lanes := map[int]bool{}
				for _, i := range active {
					if spans[i].depth == deepest {
						top = append(top, i)
					}
					lanes[spans[i].lane] = true
				}
				for _, i := range top {
					b.attribMs[spans[i].name] += dt / float64(len(top)) / ms
				}
				for l := range lanes {
					if l > 0 {
						b.laneBusyMs[l] += dt / ms
					}
				}
				union += dt
			}
			prev = e.at
			if e.open {
				active = append(active, e.idx)
				inside -= float64(e.at)
			} else {
				for k, i := range active {
					if i == e.idx {
						active = append(active[:k], active[k+1:]...)
						break
					}
				}
				inside += float64(e.at)
			}
		}
		wall := float64(hi - lo - overlap(lo, hi, refs))
		b.selfMs += (wall - union) / ms
		b.wallMs += wall / ms
		b.rounds++
	}
	b.outsideMs += (spanTotal - inside) / ms
}

// perRound returns a span name's attributed wall time per round.
func (b *breakdown) perRound(name string) float64 {
	if b.rounds == 0 {
		return 0
	}
	return b.attribMs[name] / float64(b.rounds)
}

// perCall returns a span name's mean call duration in ms (0 without calls).
func (b *breakdown) perCall(name string) float64 {
	if b.calls[name] == 0 {
		return 0
	}
	return b.busyMs[name] / float64(b.calls[name])
}
