package experiments

import (
	"fmt"
	"strings"

	"fedfteds/internal/core"
	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/strategy"
	"fedfteds/internal/tensor"
)

// AsyncWeigherNames is the staleness-discount lineup of the async
// comparison: no discount, the FedBuff-style inverse square root, and a
// harsher linear decay.
var AsyncWeigherNames = []string{"identity", "invsqrt", "poly:alpha=1"}

// AsyncRow is one configuration's outcome in the async comparison.
type AsyncRow struct {
	// Label names the row ("sync" for the baseline, else the weigher spec).
	Label string
	// Buffer is the aggregation trigger M (0 for the synchronous baseline).
	Buffer int
	// Discarded counts updates dropped for exceeding the staleness cap.
	Discarded int
	// Hist is the run's full history.
	Hist core.History
}

// AsyncCompareResult compares the synchronous engine against buffered
// asynchronous aggregation at one buffer size across staleness weighers, on
// a shared device-heterogeneous federation. Async rounds complete as soon as
// the M fastest updates arrive, so the same aggregation budget costs fewer
// cumulative client-seconds; the weighers control how much stale gradients
// from slow clients are allowed to pull the model.
type AsyncCompareResult struct {
	// Rows holds the sync baseline first, then one row per weigher.
	Rows []AsyncRow
	// NumClients is the federation size.
	NumClients int
	// MaxStaleness echoes the discard cap (negative = unlimited).
	MaxStaleness int
}

// RunAsyncCompare runs the async comparison: one synchronous baseline plus
// one buffered-async run per weigher in weigherNames (nil means the standard
// AsyncWeigherNames lineup), all from the same pretrained initialization and
// seed. buffer <= 0 picks roughly a third of the pool; maxStaleness < 0
// disables discards. The async simulator does not checkpoint, so the
// environment's artifact-store policy does not apply to this sweep.
func RunAsyncCompare(env *Env, buffer, maxStaleness int, weigherNames []string) (*AsyncCompareResult, error) {
	if len(weigherNames) == 0 {
		weigherNames = AsyncWeigherNames
	}
	numClients := env.Dims.LargeClients
	if buffer <= 0 {
		buffer = numClients / 3
	}
	if buffer < 2 {
		buffer = 2
	}
	if buffer > numClients {
		buffer = numClients
	}

	fed, err := env.BuildFederation(env.Suite.Target10, numClients, 0.1, 6464)
	if err != nil {
		return nil, err
	}
	baseCfg := core.Config{
		Rounds:         env.Dims.Rounds,
		LocalEpochs:    env.Dims.LocalEpochs,
		LR:             paperLR,
		Momentum:       paperMomentum,
		FinetunePart:   models.FinetuneModerate,
		Selector:       selection.Entropy{Temperature: paperTemperature},
		SelectFraction: 0.5,
		// Async and sync share one seed: the comparison isolates the
		// aggregation discipline, not the run randomness.
		Seed: tensor.DeriveSeed(uint64(env.Seed), 0xA21C),
	}

	res := &AsyncCompareResult{NumClients: numClients, MaxStaleness: maxStaleness}
	launch := func(label string, acfg *core.AsyncConfig) error {
		global, err := env.PretrainedModel(env.Suite.Target10, env.Suite.Source)
		if err != nil {
			return err
		}
		runner, err := core.NewRunner(baseCfg, global, fed.Clients, fed.Test)
		if err != nil {
			return fmt.Errorf("experiments: async %s: %w", label, err)
		}
		var hist core.History
		if acfg == nil {
			hist, err = runner.Run()
		} else {
			hist, err = runner.RunFleetAsync(core.FleetAsyncConfig{AsyncConfig: *acfg})
		}
		if err != nil {
			return fmt.Errorf("experiments: async %s: run: %w", label, err)
		}
		row := AsyncRow{Label: label, Hist: hist}
		if acfg != nil {
			row.Buffer = acfg.Buffer
			for _, rec := range hist.Records {
				row.Discarded += rec.CohortSize - rec.Participants
			}
		}
		res.Rows = append(res.Rows, row)
		return nil
	}

	if err := launch("sync", nil); err != nil {
		return nil, err
	}
	for _, name := range weigherNames {
		weigher, err := strategy.ParseStaleness(name)
		if err != nil {
			return nil, err
		}
		acfg := core.AsyncConfig{Buffer: buffer, MaxStaleness: maxStaleness, Weigher: weigher}
		if err := launch(weigher.Name(), &acfg); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render prints the comparison as a table: per row the best and final
// accuracy, total simulated client-seconds, learning efficiency, and the
// number of discarded (over-stale) updates.
func (r *AsyncCompareResult) Render() string {
	var b strings.Builder
	capStr := "unlimited"
	if r.MaxStaleness >= 0 {
		capStr = fmt.Sprintf("%d", r.MaxStaleness)
	}
	fmt.Fprintf(&b, "Buffered-async comparison: %d clients, staleness cap %s\n", r.NumClients, capStr)
	fmt.Fprintf(&b, "%-14s %6s %9s %9s %14s %11s %9s\n",
		"mode", "buffer", "best acc", "final acc", "client-seconds", "efficiency", "discarded")
	for _, row := range r.Rows {
		buffer := "-"
		if row.Buffer > 0 {
			buffer = fmt.Sprintf("%d", row.Buffer)
		}
		eff, err := row.Hist.LearningEfficiency()
		effStr := "n/a"
		if err == nil {
			effStr = fmt.Sprintf("%.4g", eff)
		}
		fmt.Fprintf(&b, "%-14s %6s %8.2f%% %8.2f%% %14.4g %11s %9d\n",
			row.Label, buffer,
			100*row.Hist.BestAccuracy, 100*row.Hist.FinalAccuracy,
			row.Hist.TotalTrainSeconds, effStr, row.Discarded)
	}
	return b.String()
}
