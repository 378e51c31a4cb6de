package experiments

import (
	"fmt"
	"testing"

	"facs/internal/cac"
	"facs/internal/shard"
)

// districtSCCConfig is one day of the district shape: 127 cells of
// 40 BU, a 1,300-call peak, 96 waves with a tick barrier every 4 and
// 256-request chunks, on the catalogue's SCC ledger (facs-sim
// -metropolis -controller scc -rings 6 -capacity 40 -target 1300).
func districtSCCConfig() MetropolisConfig {
	newLedger := SCCFactory()
	return MetropolisConfig{
		NewController:  func(v shard.View) (cac.Controller, error) { return newLedger(v.Network()) },
		Rings:          6,
		CapacityBU:     40,
		TargetCalls:    1300,
		WavesPerDay:    96,
		TickEveryWaves: 4,
		MaxBatch:       256,
		Seed:           1,
	}
}

// TestShardedSCCShardCountPin pins free-running sharded SCC per shard
// count. Between tick barriers each shard sees only its own admissions,
// so the shard count changes decisions and no bound on the change is
// claimed; what is pinned is that each shard count decides exactly as
// it does here, whichever goroutine runs a slice. The 1-shard engine
// matches the inline batch engine.
func TestShardedSCCShardCountPin(t *testing.T) {
	type pin struct {
		hash                        uint64
		accepted, dropped, handoffs int
	}
	one := pin{0x3647f103f997d386, 10131, 399, 1506}
	for _, tc := range []struct {
		mode   MetropolisMode
		shards int
		want   pin
	}{
		{MetroBatch, 1, one},
		{MetroSharded, 1, one},
		{MetroSharded, 2, pin{0x66f6e7200590c510, 9885, 411, 1478}},
		{MetroSharded, 4, pin{0x8575657bd06fa2b5, 9348, 489, 1385}},
	} {
		t.Run(fmt.Sprintf("%s/shards=%d", tc.mode, tc.shards), func(t *testing.T) {
			cfg := districtSCCConfig()
			cfg.Mode, cfg.Shards = tc.mode, tc.shards
			res, err := RunMetropolis(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := pin{res.DecisionHash, res.Accepted, res.HandoffDropped, res.Handoffs}
			if got != tc.want {
				t.Fatalf("got %+v (hash %#x), want %+v (hash %#x)", got, got.hash, tc.want, tc.want.hash)
			}
			assertConserved(t, "district", res)
		})
	}
}
