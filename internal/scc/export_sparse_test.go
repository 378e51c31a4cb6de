package scc

import (
	"math/rand"
	"testing"
)

// exportReference computes what a full-matrix scan would export for l:
// every (cell, interval) whose demand moved since snapshot, in
// cell-major order, and advances the snapshot. It is the oracle the
// sparse dirty-index export must match row for row.
func exportReference(l *Ledger, snapshot []int) []DemandRow {
	h := l.cfg.Horizon + 1
	var rows []DemandRow
	for ci, bs := range l.stations {
		base := ci * h
		for k := 0; k < h; k++ {
			cur := l.demand[base+k]
			if cur == snapshot[base+k] {
				continue
			}
			rows = append(rows, DemandRow{Cell: bs.Hex(), K: k, Amount: cur - snapshot[base+k]})
			snapshot[base+k] = cur
		}
	}
	return rows
}

// TestExportDemandSparseMatchesFullScan churns a ledger through admits,
// releases, kinematic updates and repeated exports, checking after every
// export that the sparse dirty-index scan produced exactly the rows a
// full-matrix diff would have — same cells, intervals, amounts, order.
func TestExportDemandSparseMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := newNet(t, 2)
	l := newLedger(t, net)
	snapshot := make([]int, len(l.demand))
	const radius = 2.0 * 2000 * 2

	checkExport := func(round int) {
		t.Helper()
		got := l.ExportDemand().Rows
		want := exportReference(l, snapshot)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d rows, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d row %d: got %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}

	id := 1
	live := []int{}
	for round := 0; round < 8; round++ {
		// Admit a few, release a few, sometimes move one — the three
		// paths that may move matrix entries.
		for i := 0; i < 5+rng.Intn(10); i++ {
			req := randomRequest(t, rng, net, id, radius)
			l.OnAdmit(req)
			live = append(live, id)
			id++
		}
		for len(live) > 3 && rng.Intn(2) == 0 {
			j := rng.Intn(len(live))
			victim := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			l.OnRelease(victim, net.Stations()[0], float64(round))
		}
		if round%3 == 2 {
			pos := randomCoveredPoint(t, rng, net, radius)
			bs, err := net.StationAt(pos)
			if err != nil {
				t.Fatal(err)
			}
			l.UpdateState(live[0], pos, rng.Float64()*360-180, rng.Float64()*120, bs.Hex())
		}
		checkExport(round)
		// An immediate second export must be empty: nothing moved.
		if rows := l.ExportDemand().Rows; len(rows) != 0 {
			t.Fatalf("round %d: idle re-export returned %d rows", round, len(rows))
		}
	}
}
