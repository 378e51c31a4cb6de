package shard

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/scc"
	"facs/internal/snap"
)

// engineSnapshotBlob captures e into a byte blob.
func engineSnapshotBlob(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.SnapshotTo(&buf); err != nil {
		t.Fatalf("SnapshotTo: %v", err)
	}
	return buf.Bytes()
}

// driveEngine pushes a request stream through e in waves of 64 with a
// tick barrier every second wave, returning a digest of every
// response's decision and commit flag.
func driveEngine(t *testing.T, e *Engine, reqs []cac.Request) string {
	t.Helper()
	var digest bytes.Buffer
	for off := 0; off < len(reqs); off += 64 {
		end := off + 64
		if end > len(reqs) {
			end = len(reqs)
		}
		resps, err := submitWave(e, reqs[off:end])
		if err != nil {
			t.Fatal(err)
		}
		for i, resp := range resps {
			// Commit failures (the cell filled between decide and
			// commit) are legitimate responses; fold them into the
			// digest rather than aborting.
			fmt.Fprintf(&digest, "%d:%v:%v:%v\n", off+i, resp.Decision, resp.Committed, resp.Err != nil)
		}
		if (off/64)%2 == 1 {
			if err := e.Tick(float64(off)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return digest.String()
}

// TestEngineSnapshotRoundTrip pins the engine-level restore contract:
// a snapshot taken at a quiesced barrier restores into a fresh
// identically-configured engine that (a) re-snapshots to identical
// bytes and (b) serves an identical continuation stream with identical
// decisions, commits and stats — for stateless (guard), shared-
// immutable (FACS) and stateful (SCC ledger) controllers across shard
// counts 1/2/4.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	factories := map[string]func(t testing.TB) func(View) (cac.Controller, error){
		"guard": func(testing.TB) func(View) (cac.Controller, error) { return guardFactory },
		"facs":  func(t testing.TB) func(View) (cac.Controller, error) { return sharedFACS(t) },
		"scc": func(testing.TB) func(View) (cac.Controller, error) {
			return func(v View) (cac.Controller, error) {
				return scc.NewLedger(scc.Config{Network: v.Network()})
			}
		},
	}
	for name, newFactory := range factories {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				build := func() (*Engine, *cell.Network) {
					net := testNetwork(t, 2)
					e, err := New(Config{
						Network:       net,
						Shards:        shards,
						Commit:        true,
						NewController: newFactory(t),
					})
					if err != nil {
						t.Fatal(err)
					}
					return e, net
				}

				a, netA := build()
				defer a.Close()
				preA := genRequests(t, netA, 77, 320)
				driveEngine(t, a, preA)
				blob := engineSnapshotBlob(t, a)

				b, netB := build()
				defer b.Close()
				if err := b.RestoreFrom(bytes.NewReader(blob)); err != nil {
					t.Fatalf("RestoreFrom: %v", err)
				}
				if got := engineSnapshotBlob(t, b); !bytes.Equal(got, blob) {
					t.Fatalf("restored engine re-snapshots to different bytes (%d vs %d)", len(got), len(blob))
				}

				contA := genRequests(t, netA, 177, 320)
				contB := genRequests(t, netB, 177, 320)
				for i := range contA {
					contA[i].Call.ID += 1000
					contB[i].Call.ID += 1000
				}
				digA := driveEngine(t, a, contA)
				digB := driveEngine(t, b, contB)
				if digA != digB {
					t.Fatal("continuation decisions diverge after restore")
				}
				// Engine counters are restored; per-shard serve.Stats
				// (latency, decided counts) are process-local
				// observability and deliberately are not.
				sa, sb := a.Stats(), b.Stats()
				if sa.Waves != sb.Waves || sa.Epoch != sb.Epoch ||
					sa.Handoffs != sb.Handoffs || sa.GhostRows != sb.GhostRows ||
					sa.Rebalances != sb.Rebalances || sa.Migrations != sb.Migrations {
					t.Fatalf("engine counters diverge: %+v vs %+v", sa, sb)
				}
				if fa, fb := engineSnapshotBlob(t, a), engineSnapshotBlob(t, b); !bytes.Equal(fa, fb) {
					t.Fatal("final snapshots diverge after continuation")
				}
			})
		}
	}
}

// TestEngineSnapshotAfterRebalance pins that epoch ownership survives
// the round trip: a snapshot taken after a forced rebalance restores
// with the rebalanced owner map and epoch, not the initial partition.
func TestEngineSnapshotAfterRebalance(t *testing.T) {
	build := func() (*Engine, *cell.Network) {
		net := testNetwork(t, 2)
		e, err := New(Config{
			Network:       net,
			Shards:        2,
			Commit:        true,
			NewController: func(v View) (cac.Controller, error) { return scc.NewLedger(scc.Config{Network: v.Network()}) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return e, net
	}
	a, netA := build()
	defer a.Close()
	driveEngine(t, a, genRequests(t, netA, 7, 256))
	if err := forceRebalance(a); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Epoch == 0 {
		t.Fatal("forced rebalance did not bump the epoch")
	}
	blob := engineSnapshotBlob(t, a)

	b, _ := build()
	defer b.Close()
	if err := b.RestoreFrom(bytes.NewReader(blob)); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	if b.Stats().Epoch != a.Stats().Epoch {
		t.Fatalf("restored epoch %d, want %d", b.Stats().Epoch, a.Stats().Epoch)
	}
	if got := engineSnapshotBlob(t, b); !bytes.Equal(got, blob) {
		t.Fatal("restored engine re-snapshots to different bytes")
	}
}

// TestEngineSnapshotStale pins the configuration guards: shard count
// and network shape must match.
func TestEngineSnapshotStale(t *testing.T) {
	build := func(rings, shards int) *Engine {
		net := testNetwork(t, rings)
		e, err := New(Config{Network: net, Shards: shards, Commit: true, NewController: guardFactory})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	a := build(2, 2)
	blob := engineSnapshotBlob(t, a)
	if err := build(2, 4).RestoreFrom(bytes.NewReader(blob)); !errors.Is(err, snap.ErrSnapshotStale) {
		t.Errorf("shard-count mismatch: err = %v, want ErrSnapshotStale", err)
	}
	if err := build(1, 2).RestoreFrom(bytes.NewReader(blob)); !errors.Is(err, snap.ErrSnapshotStale) {
		t.Errorf("network mismatch: err = %v, want ErrSnapshotStale", err)
	}
	// A guard-bandwidth change is caught by the nested controller
	// envelope even though the engine envelope matches.
	other := testNetwork(t, 2)
	diffGuard, err := New(Config{Network: other, Shards: 2, Commit: true,
		NewController: func(View) (cac.Controller, error) { return cac.NewGuardChannel(3) }})
	if err != nil {
		t.Fatal(err)
	}
	defer diffGuard.Close()
	if err := diffGuard.RestoreFrom(bytes.NewReader(blob)); !errors.Is(err, snap.ErrSnapshotStale) {
		t.Errorf("controller-config mismatch: err = %v, want ErrSnapshotStale", err)
	}
}

// TestEngineSnapshotCorrupt pins that damaged engine blobs surface the
// corrupt sentinel.
func TestEngineSnapshotCorrupt(t *testing.T) {
	net := testNetwork(t, 1)
	e, err := New(Config{Network: net, Shards: 2, Commit: true, NewController: guardFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	driveEngine(t, e, genRequests(t, net, 3, 128))
	blob := engineSnapshotBlob(t, e)
	for _, i := range []int{0, 30, len(blob) / 2, len(blob) - 2} {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		if err := e.RestoreFrom(bytes.NewReader(mut)); err == nil ||
			(!errors.Is(err, snap.ErrSnapshotCorrupt) && !errors.Is(err, snap.ErrSnapshotStale)) {
			t.Errorf("flip at %d: err = %v, want snapshot sentinel", i, err)
		}
	}
	if err := e.RestoreFrom(bytes.NewReader(blob[:len(blob)-9])); !errors.Is(err, snap.ErrSnapshotCorrupt) {
		t.Errorf("truncation: err = %v, want ErrSnapshotCorrupt", err)
	}
	if err := e.RestoreFrom(bytes.NewReader(blob)); err != nil {
		t.Fatalf("restore of good blob after corrupt attempts: %v", err)
	}
}
