package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedfteds/internal/core"
)

// histDigest hashes every RoundRecord and the History totals bit for bit.
func histDigest(h core.History) string {
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for _, r := range h.Records {
		u64(uint64(r.Round))
		u64(uint64(r.CohortSize))
		buf = append(buf, r.SchedPolicy...)
		u64(uint64(r.Participants))
		f64(r.TestAccuracy)
		f64(r.MeanTrainLoss)
		f64(r.CumTrainSeconds)
		u64(uint64(r.CumUplinkBytes))
	}
	f64(h.BestAccuracy)
	f64(h.FinalAccuracy)
	f64(h.TotalTrainSeconds)
	u64(uint64(h.TotalUplinkBytes))
	u64(uint64(h.TotalDownlinkBytes))
	sum := sha256.Sum256(buf)
	return fmt.Sprintf("%x", sum[:12])
}

// TestGoldenAsyncCompare pins the exact History of every row of the
// smoke-scale async comparison: the synchronous baseline and one
// buffered-async run per weigher of the standard lineup.
func TestGoldenAsyncCompare(t *testing.T) {
	res, err := RunAsyncCompare(smokeEnv(t), 0, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ label, digest string }{
		{"sync", "0974b35ea62eefa7dfb25074"},
		{"identity", "05f7d5f8850c5dcf504f2aff"},
		{"invsqrt", "0d6a53f95575147f6da8e0bc"},
		{"poly:alpha=1", "8acea825ea674a4bac44d9e2"},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		row := res.Rows[i]
		if got := histDigest(row.Hist); row.Label != w.label || got != w.digest {
			t.Errorf("row %d: %s digest %s, want %s digest %s", i, row.Label, got, w.label, w.digest)
		}
	}
}
