package experiments

import (
	"testing"

	"facs/internal/cac"
	"facs/internal/scc"
	"facs/internal/shard"
)

// ghostLedgerFactory builds a fresh SCC demand ledger per shard in the
// given reservation mode. The ledgers are demand exchangers, so the
// engine runs the ghost exchange at every tick barrier.
func ghostLedgerFactory(mode scc.ReservationMode) func(shard.View) (cac.Controller, error) {
	return func(v shard.View) (cac.Controller, error) {
		return scc.NewLedger(scc.Config{Network: v.Network(), Reservation: mode})
	}
}

// tickAlignedConfig is the golden SCC workload: every wave fits one
// MaxBatch chunk (the diurnal peak schedules TargetCalls / mean hold =
// 80 arrivals), a barrier tick — whose exchange republishes every
// shard's demand — precedes every wave, and handoffs, which would
// inject cross-shard mutations between barriers, never fire. Under it,
// every admission any shard performs is visible to every other shard
// before the next decision is rendered, exactly like the single
// sequential ledger.
func tickAlignedConfig(mode scc.ReservationMode) MetropolisConfig {
	cfg := contestedConfig(ghostLedgerFactory(mode))
	cfg.TickEveryWaves = 1
	cfg.HandoffEveryWaves = 1 << 30
	cfg.MaxBatch = 128
	return cfg
}

// TestShardedSCCGhostExchangeByteIdentity pins the ghost exchange:
// with tick-aligned waves it restores the Shadow Cluster baseline's
// GLOBAL demand visibility, so sharded SCC decisions are byte-identical
// at shard counts 1/2/4/8 to the inline single-ledger run.
// ReservationFull aggregates are sums of whole bandwidth units, making
// the identity exact by construction; the weighted mode is pinned at
// the same seed (summation-order noise is orders of magnitude below
// the ledger's guard band).
func TestShardedSCCGhostExchangeByteIdentity(t *testing.T) {
	for _, mode := range []scc.ReservationMode{scc.ReservationFull, scc.ReservationWeighted} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := tickAlignedConfig(mode)
			oracle, results := sweepShards(t, mode.String(), cfg)
			if oracle.Accepted == 0 || oracle.Accepted == oracle.Requested || oracle.Released == 0 {
				// Without both accepts and demand-driven rejects the
				// identity would hold vacuously.
				t.Fatalf("uncontested workload: %+v", oracle)
			}
			for _, res := range results {
				if res.Shards > 1 && res.GhostRows == 0 {
					t.Fatalf("shards-%d: exchange fanned out no demand rows", res.Shards)
				}
				if res.Shards == 1 && res.GhostRows != 0 {
					t.Fatalf("shards-1: a 1-shard engine has no siblings to fan %d rows to", res.GhostRows)
				}
			}
		})
	}
}
