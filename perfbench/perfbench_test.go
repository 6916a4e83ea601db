package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"fedfteds/internal/core"
	"fedfteds/internal/fleet"
	"fedfteds/internal/sched"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
)

// bareStrategy is a Strategy with none of the optional extensions.
type bareStrategy struct{ strategy.Strategy }

func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer(true)

	if _, ok := traceSelector(selection.Entropy{Temperature: 0.1}, tr, 0, 1, 5).(selection.UtilityScorer); !ok {
		t.Error("traced EDS selector hides selection.UtilityScorer")
	}
	if _, ok := traceSelector(selection.Random{}, tr, 0, 1, 5).(selection.UtilityScorer); ok {
		t.Error("traced random selector claims selection.UtilityScorer")
	}

	fedavg := strategy.FedAvg()
	s := clockStrategy(fedavg, tr)
	if _, ok := s.(strategy.MaskProvider); !ok {
		t.Error("clocked strategy hides strategy.MaskProvider")
	}
	if _, ok := s.(strategy.Stateful); !ok {
		t.Error("clocked strategy hides strategy.Stateful")
	}
	if s.Fingerprint() != fedavg.Fingerprint() || s.Name() != fedavg.Name() || s.LocalHook() != fedavg.LocalHook() {
		t.Error("clocked strategy changes the strategy's identity")
	}
	bare := clockStrategy(bareStrategy{fedavg}, tr)
	if _, ok := bare.(strategy.MaskProvider); ok {
		t.Error("clocked strategy claims strategy.MaskProvider its inner strategy lacks")
	}
	if _, ok := bare.(strategy.Stateful); ok {
		t.Error("clocked strategy claims strategy.Stateful its inner strategy lacks")
	}

	trace, err := fleet.ParseTrace(fleet.DiurnalTraceText(16))
	if err != nil {
		t.Fatal(err)
	}
	avail := trace.Scheduler(sched.UniformRandom{})
	if _, ok := traceScheduler(avail, tr).(sched.Stateful); !ok {
		t.Error("traced availability scheduler hides sched.Stateful")
	}
	if _, ok := traceScheduler(sched.UniformRandom{}, tr).(sched.Stateful); ok {
		t.Error("traced uniform scheduler claims sched.Stateful")
	}
	if got := traceScheduler(avail, tr).Name(); got != avail.Name() {
		t.Errorf("traced scheduler is named %q, want %q", got, avail.Name())
	}
}

// TestTracedRunsEqualUntraced runs a shortened episode of every workload
// without any decorator, with the round clock only, and fully traced, and
// requires the same History and model digest from all three.
func TestTracedRunsEqualUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload's world")
	}
	sim, err := setupSim(3)
	if err != nil {
		t.Fatal(err)
	}
	sim.(*simWorld).rounds = 2
	tcp, err := setupTCP(3)
	if err != nil {
		t.Fatal(err)
	}
	tcp.(*tcpWorld).rounds = 2
	fl, err := setupFleetOf(3, 3000)
	if err != nil {
		t.Fatal(err)
	}
	fl.rounds = 4
	for name, w := range map[string]world{"sim-eds": sim, "tcp-loopback": tcp, "fleet-day": fl} {
		t.Run(name, func(t *testing.T) {
			var digests []string
			for _, tr := range []*tracer{nil, newTracer(false), newTracer(true)} {
				ep, err := w.run(tr)
				if err != nil {
					t.Fatal(err)
				}
				digests = append(digests, ep.digest)
				if tr != nil && tr.full && len(ep.spans) == 0 {
					t.Error("traced episode recorded no spans")
				}
			}
			if digests[0] != digests[1] || digests[0] != digests[2] {
				t.Errorf("digests differ: bare %s, untraced %s, traced %s", digests[0], digests[1], digests[2])
			}
		})
	}
}

func TestBreakdownAttribution(t *testing.T) {
	const ms = int64(1e6)
	// Round 1 spans [0, 10ms): an outer span [1, 7) on lane 0 holding a
	// nested span [2, 4), and a span on lane 1 over [3, 5) at the nested
	// depth. Round 2 spans [10, 20) with no spans, only a speed-reference run
	// over [12, 13), which belongs to no round. A span over [19, 22) is half
	// outside every round.
	spans := []span{
		{name: "outer", lane: 0, depth: 1, start: 1 * ms, end: 7 * ms},
		{name: "inner", lane: 0, depth: 2, start: 2 * ms, end: 4 * ms},
		{name: "client", lane: 1, depth: 2, start: 3 * ms, end: 5 * ms},
		{name: "late", lane: 0, depth: 1, start: 19 * ms, end: 22 * ms},
	}
	b := newBreakdown()
	b.add([]int64{0, 10 * ms, 20 * ms}, spans, []span{{start: 12 * ms, end: 13 * ms}})
	want := map[string]float64{
		"inner":  1 + 0.5, // alone over [2,3), shared with client over [3,4)
		"client": 0.5 + 1, // shared over [3,4), deepest alone over [4,5)
		"outer":  1 + 2,   // [1,2) and [5,7)
		"late":   1,       // [19,20)
	}
	for name, w := range want {
		if got := b.attribMs[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s attributed %v ms, want %v", name, got, w)
		}
	}
	if math.Abs(b.selfMs-(4+8)) > 1e-9 {
		t.Errorf("self %v ms, want 12", b.selfMs)
	}
	if math.Abs(b.laneBusyMs[1]-2) > 1e-9 {
		t.Errorf("lane 1 busy %v ms, want 2", b.laneBusyMs[1])
	}
	if b.rounds != 2 || b.wallMs != 19 || math.Abs(b.outsideMs-2) > 1e-9 {
		t.Errorf("rounds %d wall %v outside %v", b.rounds, b.wallMs, b.outsideMs)
	}
	if got := b.perCall("outer"); got != 6 {
		t.Errorf("outer per call %v ms, want 6", got)
	}
}

func TestRoundBounds(t *testing.T) {
	b, ok := roundBounds(5, 50, []int64{10, 20, 30}, 3)
	if !ok || len(b) != 4 || b[0] != 5 || b[1] != 10 || b[2] != 20 || b[3] != 50 {
		t.Errorf("bounds %v ok %v", b, ok)
	}
	if _, ok := roundBounds(5, 50, []int64{10, 20}, 3); ok {
		t.Error("accepted two ApplyAggregate marks for three rounds")
	}
}

// TestBenchmarkManifest pins BENCHMARK.json to the metrics and workloads the
// program prints.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", m.EndToEnd, endToEndMetrics}, {"per_layer", m.PerLayer, perLayerMetrics}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: manifest has %d metrics, program %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, g := range c.got {
			if w := c.want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: manifest %+v, program %+v", c.what, i, g, w)
			}
		}
	}
}

func TestLayerTimesCoverEveryKind(t *testing.T) {
	w, err := setupFleetOf(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := layerTimes(w.layerModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayerMetrics[:9] { // the nn, opt and models timings
		if v := got[d.name]; !(v > 0) {
			t.Errorf("%s = %v, want a positive time", d.name, v)
		}
	}
	// The model the workload trains is left untouched.
	before := historyDigest(core.History{}, w.layerModel())
	if _, err := layerTimes(w.layerModel()); err != nil {
		t.Fatal(err)
	}
	if historyDigest(core.History{}, w.layerModel()) != before {
		t.Error("layerTimes changed the workload's model")
	}
}
