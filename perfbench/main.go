// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (sim-eds, tcp-loopback or fleet-day) for a given time, checks the
// program's outputs, and prints the end-to-end metrics, or with --trace 1 the
// per-layer breakdown, as the last line of its standard output:
//
//	bash perfbench/run.sh --workload sim-eds --seed 1 --seconds 10 --trace 0
//
// Each run sets the workload up several times (setup_s is the median) and
// then repeats the workload's deterministic episode until --seconds have
// passed. Timing metrics are reported at the speed of a fixed reference
// kernel run between rounds (calibrate.go), which cancels the drift of a
// shared machine. Every episode must end in the same History and model digest. A
// traced run alternates untraced and traced episodes, so the tracing overhead
// and the traced-equals-untraced check come from the same process.
//
// The per-layer numbers come only from the benchmark's own calls into the
// modules' public functions: pass-through decorators on selection.Selector,
// strategy.Strategy, sched.Scheduler and core.ClientSource, the benchmark's
// own TCP server and client loops, and direct timings of the nn layers.
// Nothing inside the program is instrumented.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"fedfteds/internal/tensor"
)

const (
	// setupRepeats is how many times a run builds the workload's world;
	// setup_s is the median.
	setupRepeats = 5
	// minEpisodes is the least number of measured episodes per mode.
	minEpisodes = 2
	// tailPercentile is the percentile round_tail_ms reports. It is fixed,
	// not the highest one the run's round count allows, so that a faster
	// program (more rounds in the same time) is not read at a more extreme
	// percentile; and it is p90, not p95, because the first round of every
	// sim-eds and fleet-day episode (1/24 of their rounds) does one-off work,
	// which put p95 on the edge of that cluster and made it jump between runs.
	// minRounds keeps at least ten rounds beyond it.
	tailPercentile = 90
	minRounds      = 200
	// benchProcs is the GOMAXPROCS every run uses. On a shared 2-vCPU
	// machine a process that keeps both CPUs busy is stalled whenever the
	// host or the OS needs one, which made round times swing by a third
	// from run to run; one busy CPU leaves the other to them.
	benchProcs = 1
)

type metricDef struct{ name, unit, better string }

// endToEndMetrics are printed by --trace 0 runs, in this order.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"rounds_per_s", "1/s", "higher"},
	{"round_p50_ms", "ms", "lower"},
	{"round_tail_ms", "ms", "lower"},
	{"final_accuracy_pct", "%", "higher"},
	{"wire_bytes_per_round", "bytes", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"success_ratio", "ratio", "higher"},
}

// perLayerMetrics are printed by --trace 1 runs. A workload that does not
// use a layer reports 0 for it.
var perLayerMetrics = []metricDef{
	{"nn.dense.fwd_us", "us", "lower"},
	{"nn.dense.bwd_us", "us", "lower"},
	{"nn.batchnorm.fwd_us", "us", "lower"},
	{"nn.batchnorm.bwd_us", "us", "lower"},
	{"nn.relu.fwd_us", "us", "lower"},
	{"nn.relu.bwd_us", "us", "lower"},
	{"nn.loss_us", "us", "lower"},
	{"opt.sgd_step_us", "us", "lower"},
	{"models.eval_forward_us", "us", "lower"},
	{"nn.train_batches", "count", "lower"},
	{"selection.select_ms", "ms", "lower"},
	{"selection.scored_samples", "count", "lower"},
	{"metrics.accuracy_ms", "ms", "lower"},
	{"strategy.apply_us", "us", "lower"},
	{"comm.broadcast_encode_us", "us", "lower"},
	{"comm.fold_us", "us", "lower"},
	{"comm.finish_us", "us", "lower"},
	{"comm.client_decode_us", "us", "lower"},
	{"comm.client_encode_us", "us", "lower"},
	{"comm.round_wait_ms", "ms", "lower"},
	{"comm.client_idle_share", "ratio", "lower"},
	{"comm.uplink_bytes", "bytes", "lower"},
	{"comm.downlink_bytes", "bytes", "lower"},
	{"core.local_update_ms", "ms", "lower"},
	{"fleet.new_ms", "ms", "lower"},
	{"fleet.acquire_ms", "ms", "lower"},
	{"fleet.release_ms", "ms", "lower"},
	{"fleet.materializations", "count", "lower"},
	{"fleet.pool_hit_ratio", "ratio", "higher"},
	{"core.describe_calls", "count", "lower"},
	{"sched.schedule_ms", "ms", "lower"},
	{"sched.candidates", "count", "lower"},
	{"core.self_ms", "ms", "lower"},
	{"trace.round_wall_ms", "ms", "lower"},
	{"trace.outside_share", "ratio", "lower"},
	{"trace.overhead_rounds_per_s", "1/s", "higher"},
	{"trace.overhead_round_p50_ms", "ms", "lower"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseArgs(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: sim-eds, tcp-loopback or fleet-day")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "how long to repeat the workload's episode")
	fs.IntVar(&trace, "trace", 0, "0 prints the end-to-end metrics, 1 the per-layer breakdown")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := findWorkload(o.workload); !ok {
		return o, fmt.Errorf("--workload %q: want sim-eds, tcp-loopback or fleet-day", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds %d must be at least 1", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	runtime.GOMAXPROCS(min(benchProcs, runtime.NumCPU()))
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := measure(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output checks failed")
		os.Exit(1)
	}
}

// stamp identifies the machine and code a result was measured on.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha"`
}

func newStamp(seed int64) stamp {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "none"
	}
	return stamp{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: tensor.ActiveKernel(), Seed: seed,
		Commit: commit, SourceSHA: sourceSHA(".")}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceSHA hashes the Go sources and go.mod files under root, which
// identifies the code under test where the checkout carries no git metadata.
func sourceSHA(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the identifier
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured. print writes it as one JSON line
// followed by the contract's summary line.
type result struct {
	Stamp            stamp              `json:"stamp"`
	Workload         string             `json:"workload"`
	Trace            bool               `json:"trace"`
	Correct          bool               `json:"correct"`
	Checks           []check            `json:"checks"`
	Digest           string             `json:"digest"`
	Episodes         int                `json:"episodes"`
	TracedEpisodes   int                `json:"traced_episodes"`
	Rounds           int                `json:"rounds"`
	SetupSeconds     []float64          `json:"setup_seconds"`
	ReferenceMs      float64            `json:"reference_ms"`
	SetupReferenceMs float64            `json:"setup_reference_ms"`
	Attempted        int                `json:"attempted"`
	Failed           int                `json:"failed"`
	EndToEnd         map[string]value   `json:"end_to_end"`
	EndToEndRaw      map[string]value   `json:"end_to_end_measured"`
	EndToEndTraced   map[string]value   `json:"end_to_end_traced,omitempty"`
	PerLayer         map[string]value   `json:"per_layer,omitempty"`
	LayerBusyMs      map[string]float64 `json:"layer_busy_ms_per_round,omitempty"`
	LayerAttribMs    map[string]float64 `json:"layer_wall_ms_per_round,omitempty"`
	InitialAccuracy  float64            `json:"initial_accuracy_pct"`
}

func (r *result) print(w io.Writer) error {
	rec, err := json.Marshal(r)
	if err != nil {
		return err
	}
	defs, vals := endToEndMetrics, r.EndToEnd
	if r.Trace {
		defs, vals = perLayerMetrics, r.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = vals[d.name]
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rec, line)
	return err
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func measure(o options) (*result, error) {
	w, _ := findWorkload(o.workload)
	res := &result{Stamp: newStamp(o.seed), Workload: w.name, Trace: o.trace}

	var wd world
	var fleetNewMs, setupRefs []float64
	for i := 0; i < setupRepeats; i++ {
		wd = nil // the previous world is garbage before the next setup is timed
		runtime.GC()
		setupRefs = append(setupRefs, refSamples(setupRefRuns)...)
		t0 := time.Now()
		next, err := w.setup(o.seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		res.SetupSeconds = append(res.SetupSeconds, time.Since(t0).Seconds())
		setupRefs = append(setupRefs, refSamples(setupRefRuns)...)
		if fw, ok := next.(*fleetWorld); ok {
			fleetNewMs = append(fleetNewMs, fw.newMs)
		}
		wd = next
	}

	// One unmeasured episode lets lazily built state (worker pools, replica
	// scratch, the fleet's reuse pool) settle before timing.
	warm, err := wd.run(newTracer(false))
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	var plain, traced []*episode
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; ; i++ {
		full := o.trace && i%2 == 1
		ep, err := wd.run(newTracer(full))
		if err != nil {
			return nil, fmt.Errorf("%s episode %d: %w", w.name, i, err)
		}
		if full {
			traced = append(traced, ep)
		} else {
			plain = append(plain, ep)
		}
		if time.Now().After(deadline) && enough(plain) && (!o.trace || enough(traced)) {
			break
		}
	}
	all := append(append([]*episode{warm}, plain...), traced...)
	res.Episodes, res.TracedEpisodes = len(plain), len(traced)
	res.Digest = warm.digest
	res.InitialAccuracy = 100 * warm.initAcc
	for _, ep := range append(plain, traced...) {
		res.Attempted += ep.attempted
		res.Failed += ep.failed
	}

	same := true
	for _, ep := range all {
		same = same && ep.digest == warm.digest
	}
	res.addCheck("digest_repeatable", same, fmt.Sprintf("%d episodes (%d traced), digest %s", len(all), len(traced), warm.digest))
	improved := !math.IsNaN(warm.finalAcc) && !math.IsInf(warm.finalAcc, 0) && warm.finalAcc > warm.initAcc
	res.addCheck("accuracy_improves", improved, fmt.Sprintf("%.2f%% before round 1, %.2f%% after the last", 100*warm.initAcc, 100*warm.finalAcc))
	res.addCheck("no_failed_updates", res.Failed == 0, fmt.Sprintf("%d of %d client updates failed", res.Failed, res.Attempted))
	if warm.evalMs > 0 {
		ok := true
		for _, ep := range all {
			ok = ok && ep.evalAcc == ep.finalAcc
		}
		res.addCheck("final_eval", ok, fmt.Sprintf("the benchmark's evaluation of the final model reads %.2f%%, the History %.2f%%",
			100*warm.evalAcc, 100*warm.finalAcc))
	}
	if warm.wireExpected > 0 {
		ok := true
		for _, ep := range all {
			ok = ok && ep.wireBytes == ep.wireExpected
		}
		res.addCheck("wire_bytes", ok, fmt.Sprintf("%d payload bytes per episode, state size x %d clients x 2 directions = %d",
			warm.wireBytes, tcpClients, warm.wireExpected))
	}

	rss := peakRSSMiB()
	res.SetupReferenceMs = median(setupRefs)
	res.EndToEnd, res.EndToEndRaw, res.Rounds, res.ReferenceMs = endToEnd(plain, res.SetupSeconds, setupRefs, rss)
	if o.trace {
		res.EndToEndTraced, _, _, _ = endToEnd(traced, res.SetupSeconds, setupRefs, rss)
		if err := res.perLayer(wd, traced, fleetNewMs); err != nil {
			return nil, err
		}
	}
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	return res, nil
}

// enough reports whether a mode has the episodes and rounds a run needs.
func enough(eps []*episode) bool {
	rounds := 0
	for _, ep := range eps {
		rounds += ep.rounds
	}
	return len(eps) >= minEpisodes && rounds >= minRounds
}

func (r *result) addCheck(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{name, ok, detail})
}

// endToEnd computes the end-to-end metrics of a set of episodes, at
// reference speed and as measured (see calibrate.go). setups are the
// measured setup times and setupRefs the reference runs taken around them.
// It also returns the round count and the rounds' median reference time.
func endToEnd(eps []*episode, setups, setupRefs []float64, rssMiB float64) (atRef, raw map[string]value, rounds int, refMs float64) {
	var walls, wallsAtRef, rates, ratesAtRef, refs []float64
	var wire int64
	var attempted, failed int
	for _, ep := range eps {
		b := ep.bounds
		var epMs, epAtRef float64
		for i := 1; i < len(b); i++ {
			ms := float64(b[i]-b[i-1]-overlap(b[i-1], b[i], ep.refs)) / 1e6
			// The reference ran right after this round's ApplyAggregate.
			ref := float64(ep.refs[i-1].end-ep.refs[i-1].start) / 1e6
			walls = append(walls, ms)
			wallsAtRef = append(wallsAtRef, ms*refNominalMs/ref)
			refs = append(refs, ref)
			epMs += ms
			epAtRef += ms * refNominalMs / ref
		}
		rates = append(rates, float64(ep.rounds)/(epMs/1e3))
		ratesAtRef = append(ratesAtRef, float64(ep.rounds)/(epAtRef/1e3))
		wire += ep.wireBytes
		rounds += ep.rounds
		attempted += ep.attempted
		failed += ep.failed
	}
	common := map[string]value{
		"final_accuracy_pct":   {100 * eps[0].finalAcc, "%"},
		"wire_bytes_per_round": {float64(wire) / float64(rounds), "bytes"},
		"peak_rss_mib":         {rssMiB, "MiB"},
		"success_ratio":        {1 - float64(failed)/float64(attempted), "ratio"},
	}
	timings := func(setup float64, walls, rates []float64) map[string]value {
		sort.Float64s(walls)
		tailIdx := min(int(math.Ceil(tailPercentile/100.0*float64(len(walls))))-1, len(walls)-1)
		m := map[string]value{
			"setup_s":       {setup, "s"},
			"rounds_per_s":  {median(rates), "1/s"},
			"round_p50_ms":  {median(walls), "ms"},
			"round_tail_ms": {walls[tailIdx], "ms"},
		}
		for k, v := range common {
			m[k] = v
		}
		return m
	}
	raw = timings(median(setups), walls, rates)
	atRef = timings(median(setups)*refNominalMs/median(setupRefs), wallsAtRef, ratesAtRef)
	return atRef, raw, len(walls), median(refs)
}

// perLayer fills the per-layer metrics from the traced episodes, the
// per-layer timings and the traced-minus-untraced overhead.
func (r *result) perLayer(wd world, traced []*episode, fleetNewMs []float64) error {
	b := newBreakdown()
	counts, stats := map[string]float64{}, map[string]float64{}
	var evalMs []float64
	for _, ep := range traced {
		b.add(ep.bounds, ep.spans, ep.refs)
		for k, v := range ep.counts {
			counts[k] += v
		}
		for k, v := range ep.stats {
			stats[k] += v
		}
		if ep.evalMs > 0 {
			evalMs = append(evalMs, ep.evalMs)
		}
	}
	if b.rounds == 0 {
		return errors.New("no traced rounds")
	}
	rounds := float64(b.rounds)
	pl, err := layerTimes(wd.layerModel())
	if err != nil {
		return fmt.Errorf("per-layer timings: %w", err)
	}
	set := func(name string, v float64) { pl[name] = v }
	set("nn.train_batches", counts["nn.train_batches"]/rounds)
	set("selection.select_ms", b.perRound("selection.select"))
	set("selection.scored_samples", counts["selection.scored_samples"]/rounds)
	if b.calls["metrics.accuracy"] > 0 {
		set("metrics.accuracy_ms", b.perCall("metrics.accuracy"))
	} else {
		set("metrics.accuracy_ms", median(evalMs))
	}
	set("strategy.apply_us", 1e3*b.perCall("strategy.apply"))
	set("comm.broadcast_encode_us", 1e3*b.perCall("comm.broadcast_encode"))
	set("comm.fold_us", 1e3*b.perCall("comm.fold"))
	set("comm.finish_us", 1e3*b.perCall("comm.finish"))
	set("comm.client_decode_us", 1e3*b.perCall("comm.client_decode"))
	set("comm.client_encode_us", 1e3*b.perCall("comm.client_encode"))
	set("comm.round_wait_ms", b.perRound("comm.run_round"))
	if n := len(b.laneBusyMs); n > 0 {
		var busy float64
		for _, v := range b.laneBusyMs {
			busy += v
		}
		set("comm.client_idle_share", 1-busy/float64(n)/b.wallMs)
	} else {
		set("comm.client_idle_share", 0)
	}
	set("comm.uplink_bytes", stats["comm.uplink_bytes"]/rounds)
	set("comm.downlink_bytes", stats["comm.downlink_bytes"]/rounds)
	set("core.local_update_ms", b.perCall("core.local_update"))
	if len(fleetNewMs) > 0 {
		set("fleet.new_ms", median(fleetNewMs))
	} else {
		set("fleet.new_ms", 0)
	}
	set("fleet.acquire_ms", b.perRound("fleet.acquire"))
	set("fleet.release_ms", b.perRound("fleet.release"))
	mats, hits := stats["fleet.materializations"], stats["fleet.hits"]
	set("fleet.materializations", mats/rounds)
	if mats+hits > 0 {
		set("fleet.pool_hit_ratio", hits/(mats+hits))
	} else {
		set("fleet.pool_hit_ratio", 0)
	}
	set("core.describe_calls", stats["core.describe_calls"]/rounds)
	set("sched.schedule_ms", b.perRound("sched.schedule"))
	set("sched.candidates", counts["sched.candidates"]/rounds)
	set("core.self_ms", b.selfMs/rounds)
	set("trace.round_wall_ms", b.wallMs/rounds)
	var busy float64
	for _, v := range b.busyMs {
		busy += v
	}
	outside := 0.0
	if busy > 0 {
		outside = b.outsideMs / busy
	}
	set("trace.outside_share", outside)
	set("trace.overhead_rounds_per_s", r.EndToEndTraced["rounds_per_s"].Value-r.EndToEnd["rounds_per_s"].Value)
	set("trace.overhead_round_p50_ms", r.EndToEndTraced["round_p50_ms"].Value-r.EndToEnd["round_p50_ms"].Value)

	r.PerLayer = map[string]value{}
	for _, d := range perLayerMetrics {
		v, ok := pl[d.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not computed", d.name)
		}
		r.PerLayer[d.name] = value{v, d.unit}
	}
	r.LayerBusyMs, r.LayerAttribMs = map[string]float64{}, map[string]float64{}
	for name, v := range b.busyMs {
		r.LayerBusyMs[name] = v / rounds
		r.LayerAttribMs[name] = b.attribMs[name] / rounds
	}
	r.LayerAttribMs["core.self"] = b.selfMs / rounds
	// The attributed shares plus core.self add up to each round by
	// construction; what can go wrong is span time that no round holds,
	// e.g. a round boundary marked at the wrong call.
	r.addCheck("spans_inside_rounds", outside < 0.01,
		fmt.Sprintf("%.4f of span time falls outside every round", outside))
	return nil
}
