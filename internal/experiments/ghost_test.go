package experiments

import (
	"testing"

	"facs/internal/cac"
	"facs/internal/scc"
	"facs/internal/shard"
)

// ghostLedger builds a fresh SCC demand ledger per shard. The ledgers
// are demand exchangers, so the engine runs the ghost exchange at every
// tick barrier.
func ghostLedger(v shard.View) (cac.Controller, error) {
	return scc.NewLedger(scc.Config{Network: v.Network()})
}

// tickAlignedConfig is the golden SCC workload: every wave fits one
// MaxBatch chunk (the diurnal peak schedules TargetCalls / mean hold =
// 80 arrivals), a barrier tick — whose exchange republishes every
// shard's demand — precedes every wave, and handoffs, which would
// inject cross-shard mutations between barriers, never fire. Under it,
// every admission any shard performs is visible to every other shard
// before the next decision is rendered, exactly like the single
// sequential ledger.
func tickAlignedConfig() MetropolisConfig {
	cfg := contestedConfig(ghostLedger)
	cfg.TickEveryWaves = 1
	cfg.HandoffEveryWaves = 1 << 30
	cfg.MaxBatch = 128
	return cfg
}

// TestShardedSCCGhostExchangeByteIdentity pins the ghost exchange:
// with tick-aligned waves it restores the Shadow Cluster baseline's
// GLOBAL demand visibility, so sharded SCC decisions are byte-identical
// at shard counts 1/2/4/8 to the inline single-ledger run. Under full
// reservation, which names the subtest, aggregates are sums of whole
// bandwidth units, making the identity exact by construction.
func TestShardedSCCGhostExchangeByteIdentity(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		oracle, results := sweepShards(t, "scc", tickAlignedConfig())
		if oracle.Accepted == 0 || oracle.Accepted == oracle.Requested || oracle.Released == 0 {
			// Without both accepts and demand-driven rejects the identity
			// would hold vacuously.
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
