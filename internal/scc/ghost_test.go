package scc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/traffic"
)

// admitN pushes n randomized calls into the ledger's tracking state
// (without touching station occupancy) and returns the next free ID.
func admitN(t *testing.T, rng *rand.Rand, net *cell.Network, l *Ledger, firstID, n int, radius float64) int {
	t.Helper()
	for i := 0; i < n; i++ {
		l.OnAdmit(randomRequest(t, rng, net, firstID+i, radius))
	}
	return firstID + n
}

// demandMismatch returns the first (cell, interval) where two ledgers'
// ProjectedDemand surfaces differ, as a message, or "" when they agree.
func demandMismatch(a, b *Ledger, net *cell.Network) string {
	for _, bs := range net.Stations() {
		for k := 0; k <= a.cfg.Horizon; k++ {
			if x, y := a.ProjectedDemand(bs.Hex(), k), b.ProjectedDemand(bs.Hex(), k); x != y {
				return fmt.Sprintf("%v k=%d: %d vs %d BU", bs.Hex(), k, x, y)
			}
		}
	}
	return ""
}

// TestGhostExchangeMirrorsRemoteLedger pins the core exchange identity:
// after applying a ledger's exported delta, the receiver's ghost matrix
// reproduces the exporter's demand surface exactly — on the first
// export (the delta IS the matrix) and across telescoping releases and
// re-exports, every aggregate being a whole-BU sum under full
// reservation, which names the subtest.
func TestGhostExchangeMirrorsRemoteLedger(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		net := newNet(t, 2)
		const radius = 2.0 * 2000 * 2
		remote := newLedger(t, net)
		local := newLedger(t, net)

		admitN(t, rng, net, remote, 1, 40, radius)
		delta := remote.ExportDemand()
		if delta.Gen != 1 || len(delta.Rows) == 0 {
			t.Fatalf("first export: gen %d with %d rows", delta.Gen, len(delta.Rows))
		}
		local.ApplyGhost(0, delta)
		// First export: ghost is a verbatim copy of the remote matrix.
		if diff := demandMismatch(local, remote, net); diff != "" {
			t.Fatalf("first exchange: demand surfaces differ at %s", diff)
		}

		// Release half remotely, admit a few more, re-export: the
		// telescoped deltas must keep tracking the remote surface.
		for id := 1; id <= 20; id++ {
			remote.OnRelease(id, nil, 0)
		}
		admitN(t, rng, net, remote, 41, 10, radius)
		delta = remote.ExportDemand()
		if delta.Gen != 2 {
			t.Fatalf("second export: gen %d, want 2", delta.Gen)
		}
		local.ApplyGhost(0, delta)
		if diff := demandMismatch(local, remote, net); diff != "" {
			t.Fatalf("second exchange: demand surfaces differ at %s", diff)
		}

		// An unchanged ledger exports an empty delta (generation still
		// advances so receivers can tell silence from loss).
		delta = remote.ExportDemand()
		if delta.Gen != 3 || len(delta.Rows) != 0 {
			t.Fatalf("idle export: gen %d with %d rows, want gen 3 with none", delta.Gen, len(delta.Rows))
		}
	})
}

// TestGhostDecideSeesRemoteDemand shows the model change the exchange
// exists for: demand projected by calls homed on another shard's cells
// is invisible until a delta arrives, and binding afterwards.
func TestGhostDecideSeesRemoteDemand(t *testing.T) {
	net := newNet(t, 1)
	remote := newLedger(t, net)
	local := newLedger(t, net)
	bs := net.Stations()[0]

	// Four stationary video calls at the cell centre saturate the
	// survivability threshold (4 x 10 BU > 0.85 x 40 BU) in the remote
	// ledger only.
	for id := 1; id <= 4; id++ {
		remote.OnAdmit(cac.Request{
			Call:    cell.Call{ID: id, Class: traffic.Video, BU: traffic.Video.BandwidthUnits()},
			Station: bs,
			Est:     gpsEstimate(bs.Pos(), 0, 0),
		})
	}
	probe := cac.Request{
		Call:    cell.Call{ID: 99, Class: traffic.Video, BU: traffic.Video.BandwidthUnits()},
		Station: bs,
		Est:     gpsEstimate(bs.Pos(), 0, 0),
	}
	if d, err := remote.Decide(probe); err != nil || d != cac.Reject {
		t.Fatalf("remote ledger should reject under its own demand: %v, %v", d, err)
	}
	if d, err := local.Decide(probe); err != nil || d != cac.Accept {
		t.Fatalf("demand-blind local ledger should accept: %v, %v", d, err)
	}
	local.ApplyGhost(1, remote.ExportDemand())
	if d, err := local.Decide(probe); err != nil || d != cac.Reject {
		t.Fatalf("after the exchange the local ledger should reject: %v, %v", d, err)
	}
	if g := local.GhostDemand(bs.Hex(), 0); g != 40 {
		t.Fatalf("ghost demand at the saturated cell is %d, want 40", g)
	}
	if g := local.GhostDemand(geo.Hex{Q: 99, R: 99}, 0); g != 0 {
		t.Fatalf("foreign hex should carry no ghost demand, got %d", g)
	}
}

// TestGhostGenerationGuards pins replay / out-of-order protection: a
// delta whose generation does not advance past the last applied one
// from the same source is ignored, per source.
func TestGhostGenerationGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := newNet(t, 1)
	remote := newLedger(t, net)
	local := newLedger(t, net)
	admitN(t, rng, net, remote, 1, 10, 2000)

	delta := remote.ExportDemand()
	local.ApplyGhost(0, delta)
	before := local.Snapshot()
	want := local.ProjectedDemand(net.Stations()[0].Hex(), 0)

	local.ApplyGhost(0, delta) // replay: ignored
	local.ApplyGhost(0, cac.DemandDelta{Gen: 0, Rows: delta.Rows})
	if got := local.ProjectedDemand(net.Stations()[0].Hex(), 0); got != want {
		t.Fatalf("replayed delta changed demand: %d, want %d", got, want)
	}
	after := local.Snapshot()
	if after.GhostApplies != before.GhostApplies || after.GhostRows != before.GhostRows {
		t.Fatalf("replayed delta counted: %+v vs %+v", after, before)
	}
	// A different source with the same generation must still apply.
	local.ApplyGhost(1, delta)
	if got := local.Snapshot().GhostApplies; got != before.GhostApplies+1 {
		t.Fatalf("second source not applied: %d applies", got)
	}
}

// TestLedgerSnapshotCounters covers the Do-op observability surface:
// Snapshot mirrors the internal counters, Add aggregates field-wise,
// String carries the exchange and shadow counts.
func TestLedgerSnapshotCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := newNet(t, 1)
	l := newLedger(t, net)
	admitN(t, rng, net, l, 1, 5, 2000)
	l.OnAdmit(randomRequest(t, rng, net, 6, 2000))
	l.ExportDemand()
	st := l.Snapshot()
	if st.ActiveCalls != 6 || st.Exports != 1 || st.Generation != 1 || st.ClassShadows == 0 || st.ExactFallbacks != 0 {
		t.Fatalf("snapshot: %+v", st)
	}
	if st.ClassShadows != l.classStats.shadows || st.ExactShadows != l.classStats.exact {
		t.Fatalf("snapshot disagrees with the shadow counters: %+v vs %+v", st, l.classStats)
	}
	sum := st.Add(LedgerStats{ActiveCalls: 1, ClassShadows: 2, Generation: 7, GhostRows: 3})
	if sum.ActiveCalls != 7 || sum.ClassShadows != st.ClassShadows+2 || sum.Generation != 7 || sum.GhostRows != 3 {
		t.Fatalf("add: %+v", sum)
	}
	if s := sum.String(); !strings.Contains(s, "class shadows") || !strings.Contains(s, "ghost applies") {
		t.Fatalf("summary: %s", s)
	}
}
