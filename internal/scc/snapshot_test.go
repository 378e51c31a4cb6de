package scc

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/snap"
)

// ledgerSnapshotBlob captures l into a byte blob.
func ledgerSnapshotBlob(t *testing.T, l *Ledger) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.SnapshotTo(&buf); err != nil {
		t.Fatalf("SnapshotTo: %v", err)
	}
	return buf.Bytes()
}

// driveLedgerStep applies one deterministic random operation to l. Two
// ledgers driven with equally-seeded RNGs on identically-shaped
// networks receive identical operation sequences; decide steps return
// the decision so callers can assert equality.
func driveLedgerStep(t *testing.T, l *Ledger, rng *rand.Rand, net *cell.Network, live *[]int, nextID *int, step int) (cac.Decision, bool) {
	t.Helper()
	const radius = 2.0 * 2000 * 2
	switch op := rng.Float64(); {
	case op < 0.4: // admit
		req := randomRequest(t, rng, net, *nextID, radius)
		*nextID++
		l.OnAdmit(req)
		*live = append(*live, req.Call.ID)
	case op < 0.55 && len(*live) > 0: // release
		i := rng.Intn(len(*live))
		id := (*live)[i]
		*live = append((*live)[:i], (*live)[i+1:]...)
		l.OnRelease(id, nil, 0)
	case op < 0.65 && len(*live) > 0: // kinematic update
		id := (*live)[rng.Intn(len(*live))]
		pos := randomCoveredPoint(t, rng, net, radius)
		bs, err := net.StationAt(pos)
		if err != nil {
			t.Fatal(err)
		}
		l.UpdateState(id, pos, rng.Float64()*360-180, rng.Float64()*120, bs.Hex())
	case op < 0.72: // tick (a no-op for the ledger)
		l.OnTick(float64(step))
	default: // decide
		req := randomRequest(t, rng, net, 1_000_000+step, radius)
		dec, err := l.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		return dec, true
	}
	return 0, false
}

// TestLedgerSnapshotRoundTrip drives a ledger through a randomized
// admit/release/update/tick/export/ghost history, snapshots it,
// restores the blob into a fresh identically-configured ledger and
// requires (a) the restored instance re-snapshots to the identical
// bytes and (b) both instances continue byte-identically through a
// shared continuation — decisions, demand exports and final snapshots
// all equal. This is the controller-level half of the restore-then-
// replay determinism contract.
func TestLedgerSnapshotRoundTrip(t *testing.T) {
	scenarios := []struct {
		name   string
		mutate func(*Config)
	}{
		{"defaults", func(*Config) {}},
		{"full-coverage", func(c *Config) { c.RequireClusterCoverage = true }},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			netA := newNet(t, 2)
			a := newLedger(t, netA, sc.mutate)

			live := []int{}
			nextID := 0
			for step := 0; step < 250; step++ {
				driveLedgerStep(t, a, rng, netA, &live, &nextID, step)
				if step%60 == 30 {
					a.ExportDemand()
				}
			}
			// Accumulate ghost demand from two remote shards so the
			// ghost matrix and generation guards are non-trivial.
			st := netA.Stations()
			for gen := uint64(1); gen <= 2; gen++ {
				a.ApplyGhost(7, cac.DemandDelta{Gen: gen, Rows: []cac.DemandRow{
					{Cell: st[0].Hex(), K: 0, Amount: 3 * int(gen)},
					{Cell: st[len(st)-1].Hex(), K: 2, Amount: -2},
				}})
			}
			a.ApplyGhost(3, cac.DemandDelta{Gen: 5, Rows: []cac.DemandRow{
				{Cell: st[1].Hex(), K: 1, Amount: 2},
			}})

			blob := ledgerSnapshotBlob(t, a)

			netB := newNet(t, 2)
			b := newLedger(t, netB, sc.mutate)
			if err := b.RestoreFrom(bytes.NewReader(blob)); err != nil {
				t.Fatalf("RestoreFrom: %v", err)
			}
			if got := ledgerSnapshotBlob(t, b); !bytes.Equal(got, blob) {
				t.Fatalf("restored ledger re-snapshots to different bytes (%d vs %d)", len(got), len(blob))
			}
			if a.ActiveCalls() != b.ActiveCalls() {
				t.Fatalf("active calls: %d vs %d", a.ActiveCalls(), b.ActiveCalls())
			}
			if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
				t.Fatalf("ledger stats diverge: %+v vs %+v", a.Snapshot(), b.Snapshot())
			}

			// Continuation: identical op streams must stay identical.
			rngA := rand.New(rand.NewSource(99))
			rngB := rand.New(rand.NewSource(99))
			liveA := append([]int(nil), live...)
			liveB := append([]int(nil), live...)
			nextA, nextB := nextID, nextID
			for step := 0; step < 150; step++ {
				decA, isDecA := driveLedgerStep(t, a, rngA, netA, &liveA, &nextA, step)
				decB, isDecB := driveLedgerStep(t, b, rngB, netB, &liveB, &nextB, step)
				if isDecA != isDecB || decA != decB {
					t.Fatalf("step %d: decisions diverge after restore: %v/%v vs %v/%v", step, decA, isDecA, decB, isDecB)
				}
			}
			da := a.ExportDemand()
			db := b.ExportDemand()
			if da.Gen != db.Gen || !reflect.DeepEqual(da.Rows, db.Rows) {
				t.Fatalf("exports diverge after restore: gen %d (%d rows) vs gen %d (%d rows)",
					da.Gen, len(da.Rows), db.Gen, len(db.Rows))
			}
			if fa, fb := ledgerSnapshotBlob(t, a), ledgerSnapshotBlob(t, b); !bytes.Equal(fa, fb) {
				t.Fatalf("final snapshots diverge after continuation")
			}
		})
	}
}

// TestLedgerSnapshotEmpty pins the trivial case: a fresh ledger's
// snapshot restores onto another fresh ledger.
func TestLedgerSnapshotEmpty(t *testing.T) {
	a := newLedger(t, newNet(t, 1))
	b := newLedger(t, newNet(t, 1))
	blob := ledgerSnapshotBlob(t, a)
	if err := b.RestoreFrom(bytes.NewReader(blob)); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	if got := ledgerSnapshotBlob(t, b); !bytes.Equal(got, blob) {
		t.Fatal("empty round trip not byte-identical")
	}
}

// TestLedgerSnapshotStale pins the configuration guard: a snapshot
// restores only onto an identically-configured twin.
func TestLedgerSnapshotStale(t *testing.T) {
	a := newLedger(t, newNet(t, 2))
	blob := ledgerSnapshotBlob(t, a)

	tighter := newLedger(t, newNet(t, 2), func(c *Config) { c.Threshold = 0.4 })
	if err := tighter.RestoreFrom(bytes.NewReader(blob)); !errors.Is(err, snap.ErrSnapshotStale) {
		t.Errorf("threshold mismatch: err = %v, want ErrSnapshotStale", err)
	}
	smaller := newLedger(t, newNet(t, 1))
	if err := smaller.RestoreFrom(bytes.NewReader(blob)); !errors.Is(err, snap.ErrSnapshotStale) {
		t.Errorf("network mismatch: err = %v, want ErrSnapshotStale", err)
	}
}

// TestLedgerSnapshotCorrupt pins the damage guard: bit flips and
// truncation surface as ErrSnapshotCorrupt and leave the target
// restorable from a good blob.
func TestLedgerSnapshotCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	netA := newNet(t, 1)
	a := newLedger(t, netA)
	live := []int{}
	nextID := 0
	for step := 0; step < 60; step++ {
		driveLedgerStep(t, a, rng, netA, &live, &nextID, step)
	}
	blob := ledgerSnapshotBlob(t, a)

	b := newLedger(t, newNet(t, 1))
	for _, i := range []int{20, len(blob) / 2, len(blob) - 3} {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		if err := b.RestoreFrom(bytes.NewReader(mut)); err == nil ||
			(!errors.Is(err, snap.ErrSnapshotCorrupt) && !errors.Is(err, snap.ErrSnapshotStale)) {
			t.Errorf("flip at %d: err = %v, want snapshot sentinel", i, err)
		}
	}
	if err := b.RestoreFrom(bytes.NewReader(blob[:len(blob)-5])); !errors.Is(err, snap.ErrSnapshotCorrupt) {
		t.Errorf("truncation: err = %v, want ErrSnapshotCorrupt", err)
	}
	// The good blob still restores after the failed attempts.
	if err := b.RestoreFrom(bytes.NewReader(blob)); err != nil {
		t.Fatalf("RestoreFrom after corrupt attempts: %v", err)
	}
	if got := ledgerSnapshotBlob(t, b); !bytes.Equal(got, blob) {
		t.Fatal("round trip after corrupt attempts not byte-identical")
	}
}

// TestLedgerSnapshotFullWholeBU pins the restore side of the whole-BU
// matrices: a hand-made blob whose demand, ghost or exported matrix
// holds an entry that is fractional, non-finite or at least 2^53 (past
// the integers float64 holds exactly) is refused as corrupt, and the
// untouched payload still restores.
func TestLedgerSnapshotFullWholeBU(t *testing.T) {
	net := newNet(t, 1)
	src := newLedger(t, net)
	rng := rand.New(rand.NewSource(3))
	for id := 0; id < 8; id++ {
		src.OnAdmit(randomRequest(t, rng, net, id, 2.0*2000*1.5))
	}
	src.ExportDemand()
	dst := newLedger(t, net)
	blob := func(demand, ghost, exported []float64) []byte {
		var buf bytes.Buffer
		if err := src.writeSnapshot(&buf, demand, ghost, exported); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for m, name := range []string{"demand", "ghost", "exported"} {
		for _, v := range []float64{0.5, math.NaN(), 1 << 53, -(1 << 63), math.Inf(-1)} {
			mats := [][]float64{wholeBU(src.demand), wholeBU(src.ghost), wholeBU(src.exported)}
			mats[m][3] = v
			err := dst.RestoreFrom(bytes.NewReader(blob(mats[0], mats[1], mats[2])))
			if !errors.Is(err, snap.ErrSnapshotCorrupt) {
				t.Errorf("%s entry %v: err = %v, want ErrSnapshotCorrupt", name, v, err)
			}
		}
	}
	good := blob(wholeBU(src.demand), wholeBU(src.ghost), wholeBU(src.exported))
	if !bytes.Equal(good, ledgerSnapshotBlob(t, src)) {
		t.Fatal("writeSnapshot of the ledger's own matrices differs from SnapshotTo")
	}
	if err := dst.RestoreFrom(bytes.NewReader(good)); err != nil {
		t.Fatalf("whole-BU snapshot: %v", err)
	}
}
