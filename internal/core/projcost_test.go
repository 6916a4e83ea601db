package core

import (
	"math"
	"testing"

	"fedfteds/internal/models"
	"fedfteds/internal/selection"
	"fedfteds/internal/simtime"
)

// TestProjectedCostsMatchPerClientFormula pins the run-level cost cache to
// the per-client projection it replaced: every cached projCost[i] must equal,
// bit for bit, the cost computed for that client alone from the model — with
// simtime.ClientRoundCost on untiered runs, and on tiered runs with the
// forward cost of the whole model plus the training cost of the client's
// tier mask. Covers two finetune parts, so the frozen backward region varies.
func TestProjectedCostsMatchPerClientFormula(t *testing.T) {
	for _, part := range []models.FinetunePart{models.FinetuneFull, models.FinetuneModerate} {
		for _, dist := range []string{"", "low:1,mid:1,full:1"} {
			clients, _, test, spec := testFederation(t, 6, 0.5)
			for i, cl := range clients {
				cl.Device = simtime.Device{FLOPSRate: 1e9 * (1 + 0.37*float64(i))}
			}
			m, err := models.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Rounds: 1, LocalEpochs: 2, LR: 0.1, Momentum: 0.5, FinetunePart: part,
				Selector: selection.Entropy{Temperature: 0.1}, SelectFraction: 0.3,
				Seed: 5, Parallelism: 2,
			}
			if dist != "" {
				cfg.TierDist = mustDist(t, dist)
			}
			r, err := NewRunner(cfg, m, clients, test)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			passes := cfg.Selector.ScoringPasses()
			for i, cl := range clients {
				size := cl.Data.Len()
				selected := projectedSelected(size, cfg.SelectFraction)
				var want float64
				if r.tiers == nil {
					cost, err := simtime.ClientRoundCost(m, cl.Device, size, selected, cfg.LocalEpochs, passes)
					if err != nil {
						t.Fatal(err)
					}
					want = cost.Total()
				} else {
					train, err := m.TrainFLOPsPerSampleFor(r.tierMasks[r.tiers[i]])
					if err != nil {
						t.Fatal(err)
					}
					fwd, rate := float64(m.ForwardFLOPsPerSample()), cl.Device.FLOPSRate
					want = float64(passes)*fwd*float64(size)/rate +
						float64(cfg.LocalEpochs)*float64(train)*float64(selected)/rate
				}
				if math.Float64bits(r.projCost[i]) != math.Float64bits(want) {
					t.Errorf("part %v tiers %q client %d: cached cost %v, per-client formula %v",
						part, dist, i, r.projCost[i], want)
				}
			}
			if dist != "" && !distinctTiers(r.tiers) {
				t.Fatalf("tiers %q assigned a single tier %v; the test needs several", dist, r.tiers)
			}
		}
	}
}

// distinctTiers reports whether more than one tier was assigned.
func distinctTiers(tiers []string) bool {
	for _, tier := range tiers {
		if tier != tiers[0] {
			return true
		}
	}
	return false
}
