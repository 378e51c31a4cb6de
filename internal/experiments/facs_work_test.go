package experiments

import (
	"testing"

	"facs/internal/cac"
	"facs/internal/facs"
	"facs/internal/shard"
)

// TestCityFACSWorkCountersPin pins the compiled FACS's work over one
// simulated day of the city-facs benchmark's shape (1027 cells of 500 m
// at 40 BU, the inline batch engine, 10,000 target calls, 96 waves with
// a tick every 4, batches of 256) at seed 1, on a fresh controller: the
// decision outcome, which step settled each decision that reached the
// controller (whole cell, sub-cell, exact engines), and how many FLC1
// cells and sub-cells the day enclosed. Every count is exact; a change
// that moves one must say why.
func TestCityFACSWorkCountersPin(t *testing.T) {
	cc, err := facs.NewCompiled(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunMetropolis(MetropolisConfig{
		NewController:  func(shard.View) (cac.Controller, error) { return cc, nil },
		Mode:           MetroBatch,
		Shards:         1,
		Rings:          18,
		CellRadiusM:    500,
		CapacityBU:     40,
		TargetCalls:    10000,
		Waves:          96,
		WavesPerDay:    96,
		TickEveryWaves: 4,
		MaxBatch:       256,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.DecisionHash != 0x6eac7b358aee6c4b {
		t.Fatalf("outcome: hash %#x, %d requested, %d accepted, %d handoffs, %d dropped",
			r.DecisionHash, r.Requested, r.Accepted, r.Handoffs, r.HandoffDropped)
	}
	fast, exact := cc.Stats()
	cell := cc.CellSettled()
	cells, subCells := cc.Enclosed()
	type counts struct{ cell, sub, exact, cells, subCells int64 }
	got := counts{cell, fast - cell, exact, cells, subCells}
	t.Logf("%d decisions reached the controller: %+v", fast+exact, got)
	want := counts{cell: 120851, sub: 2213, exact: 1313, cells: 7296, subCells: 4468}
	if got != want {
		t.Fatalf("work counters %+v, want %+v", got, want)
	}
}
