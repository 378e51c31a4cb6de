package scc_test

import (
	"sync"
	"testing"

	"facs/internal/cac"
	"facs/internal/experiments"
	"facs/internal/scc"
	"facs/internal/shard"
)

// TestDistrictWorkCountersPin pins the shadow work of the district
// workload (127 cells of 500 m at 40 BU, two shards, full reservation
// with the coverage requirement, 1300 target calls, 96 waves with a tick
// every 4, batches of 256) over one simulated day at seed 1: its
// decision outcome, the ledgers' class and exact shadows, visited
// stations and evaluated weights, and the HexAt calls their decisions
// made. Every count is exact; a change that moves one must say why.
// The evaluated weights rose from 557,358 to 561,040 (+3,682) when the
// pruned all-station shadow went: each of the 46 clusters the class
// shadow cannot certify now takes the reference appendShadow, which
// evaluates all 127 station weights (5,842 in all) where the pruned
// shadow evaluated 2,160.
func TestDistrictWorkCountersPin(t *testing.T) {
	var mu sync.Mutex
	var ledgers []*scc.Ledger
	r, err := experiments.RunMetropolis(experiments.MetropolisConfig{
		NewController: func(v shard.View) (cac.Controller, error) {
			l, err := scc.NewLedger(scc.Config{
				Network:                v.Network(),
				Reservation:            scc.ReservationFull,
				RequireClusterCoverage: true,
			})
			if err != nil {
				return nil, err
			}
			mu.Lock()
			ledgers = append(ledgers, l)
			mu.Unlock()
			return l, nil
		},
		Mode:           experiments.MetroSharded,
		Shards:         2,
		Rings:          6,
		CellRadiusM:    500,
		CapacityBU:     40,
		TargetCalls:    1300,
		Waves:          96,
		WavesPerDay:    96,
		TickEveryWaves: 4,
		MaxBatch:       256,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.DecisionHash != 0x66f6e7200590c510 || r.Requested != 14650 || r.Accepted != 9885 ||
		r.Handoffs != 1478 || r.HandoffDropped != 411 {
		t.Fatalf("outcome: hash %#x, %d requested, %d accepted, %d handoffs, %d dropped",
			r.DecisionHash, r.Requested, r.Accepted, r.Handoffs, r.HandoffDropped)
	}
	var st scc.LedgerStats
	var hexes int64
	for _, l := range ledgers {
		st = st.Add(l.Snapshot())
		hexes += scc.DecideHexLookups(l)
	}
	decisions := int64(r.Decisions())
	t.Logf("%d ledgers, %d decisions: %d class shadows, %d exact, %.2f visited and %.2f weights per shadow, %.3f HexAt per decision",
		len(ledgers), decisions, st.ClassShadows, st.ExactShadows,
		float64(st.Visited)/float64(st.ClassShadows), float64(st.Exps)/float64(st.ClassShadows),
		float64(hexes)/float64(decisions))
	want := struct{ ledgers, class, exact, visited, exps, hexes int64 }{2, 96762, 46, 1206492, 561040, 112770}
	got := struct{ ledgers, class, exact, visited, exps, hexes int64 }{
		int64(len(ledgers)), st.ClassShadows, st.ExactShadows, st.Visited, st.Exps, hexes}
	if got != want {
		t.Fatalf("work counters %+v, want %+v", got, want)
	}
}
