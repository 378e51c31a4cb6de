package experiments

import (
	"testing"

	"facs/internal/cac"
	"facs/internal/scc"
	"facs/internal/shard"
)

// elasticConfig is the contested closed loop with elastic rebalancing
// switched on: blocks partition (so the diurnal hotspot drift actually
// skews shard loads), an epoch planned at every barrier tick, ticks
// every other wave.
func elasticConfig(factory func(shard.View) (cac.Controller, error)) MetropolisConfig {
	cfg := contestedConfig(factory)
	cfg.Partition = shard.PartitionBlocks
	cfg.RebalanceEveryTicks = 1
	cfg.TickEveryWaves = 2
	cfg.Rebalance = shard.PlannerConfig{MaxMoves: 4, Tolerance: 0.01}
	return cfg
}

// TestShardedRebalanceByteIdentity is the elastic-sharding acceptance
// suite: with rebalancing planned at every tick barrier, cell-local
// controllers must still reproduce the inline batch engine's outcome at
// shard counts 1/2/4/8 — ownership moves, outcomes don't. The
// multi-shard runs must actually apply epochs (otherwise the identity
// is vacuous).
func TestShardedRebalanceByteIdentity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory func(shard.View) (cac.Controller, error)
	}{
		{"guard", shardGuardFactory},
		{"facs", shardFACSFactory},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracle, results := sweepShards(t, tc.name, elasticConfig(tc.factory))
			if oracle.Handoffs == 0 || oracle.Released == 0 || oracle.Accepted == 0 {
				t.Fatalf("degenerate workload: %+v", oracle)
			}
			sawEpoch := false
			for _, res := range results {
				if res.Shards == 1 {
					if res.Rebalances != 0 {
						t.Fatalf("shards-1: single shard has nothing to rebalance: %+v", res)
					}
					continue
				}
				if res.Rebalances > 0 {
					sawEpoch = true
					if res.Migrations == 0 {
						t.Fatalf("shards-%d: epochs applied but nothing migrated: %+v", res.Shards, res)
					}
				}
			}
			if !sawEpoch {
				t.Fatal("no multi-shard run ever applied a rebalance epoch — identity held vacuously")
			}
		})
	}
}

// TestShardedSCCRebalanceByteIdentity extends the ghost-exchange
// golden workload with an epoch planned at every barrier: rebalancing
// an SCC shard migrates its ledger tracks and resets the exchange, so
// the post-epoch absolute re-export must restore the exact global
// demand view — tick-aligned decisions stay byte-identical at shard
// counts 1/2/4/8 to the single inline ledger, epochs and all.
func TestShardedSCCRebalanceByteIdentity(t *testing.T) {
	cfg := tickAlignedConfig(scc.ReservationFull)
	cfg.Partition = shard.PartitionBlocks
	cfg.RebalanceEveryTicks = 1
	cfg.Rebalance = shard.PlannerConfig{MaxMoves: 4, Tolerance: 0.01}
	oracle, results := sweepShards(t, "scc-rebalance", cfg)
	if oracle.Accepted == 0 || oracle.Accepted == oracle.Requested {
		t.Fatalf("degenerate workload: %+v", oracle)
	}
	sawEpoch := false
	for _, res := range results {
		if res.Shards > 1 && res.Rebalances > 0 {
			sawEpoch = true
			if res.Migrations == 0 || res.MigratedCalls == 0 {
				t.Fatalf("shards-%d: epochs applied but nothing migrated: %+v", res.Shards, res)
			}
		}
	}
	if !sawEpoch {
		t.Fatal("no multi-shard run ever applied a rebalance epoch — identity held vacuously")
	}
}

// TestMetropolisRebalanceIdentity pins the metropolis DecisionHash for
// cell-local controllers under elastic sharding: the diurnal hotspot
// workload rebalances hot cells between shards, yet every shard count
// reproduces the static batch baseline bit for bit.
func TestMetropolisRebalanceIdentity(t *testing.T) {
	base := metroTestConfig(shardGuardFactory)
	baseline, err := RunMetropolis(base)
	if err != nil {
		t.Fatal(err)
	}
	sawEpoch := false
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := base
		cfg.Mode = MetroSharded
		cfg.Shards = shards
		cfg.Partition = shard.PartitionBlocks
		cfg.RebalanceEveryTicks = 1
		cfg.Rebalance = shard.PlannerConfig{MaxMoves: 4, Tolerance: 0.01}
		res, err := RunMetropolis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameMetroOutcome(t, "rebalance/shards-"+string(rune('0'+shards)), baseline, res)
		if shards > 1 && res.Rebalances > 0 {
			sawEpoch = true
			if res.Epoch != uint64(res.Rebalances) || res.MigratedCalls < 0 {
				t.Fatalf("shards-%d: inconsistent epoch accounting: %+v", shards, res)
			}
		}
	}
	if !sawEpoch {
		t.Fatal("no multi-shard metropolis run ever applied a rebalance epoch")
	}
}

// TestMetropolisInterestScopedReduction is the fan-out acceptance on
// the hotspot metropolis: ledgers declaring a bounded interest radius
// (slow traffic, wide cells) must fan strictly fewer ghost rows than
// the all-to-all baseline on a blocks partition, with the savings
// reported in the result — while the same ledgers without the speed
// bound fan the full baseline with unchanged outcomes (the ledger uses
// the bound only to route exchanged rows).
func TestMetropolisInterestScopedReduction(t *testing.T) {
	ledgers := func(maxSpeedKmh float64) func(shard.View) (cac.Controller, error) {
		return func(v shard.View) (cac.Controller, error) {
			return scc.NewLedger(scc.Config{
				Network:     v.Network(),
				Reservation: scc.ReservationFull,
				MaxSpeedKmh: maxSpeedKmh,
			})
		}
	}
	cfg := metroTestConfig(ledgers(30))
	cfg.Mode = MetroSharded
	cfg.Shards = 4
	cfg.Partition = shard.PartitionBlocks
	cfg.CellRadiusM = 2000
	cfg.SpeedKmh = Span{Min: 5, Max: 30}
	cfg.RebalanceEveryTicks = 2

	scoped, err := RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unscopedCfg := cfg
	unscopedCfg.NewController = ledgers(0)
	unscoped, err := RunMetropolis(unscopedCfg)
	if err != nil {
		t.Fatal(err)
	}
	sameMetroOutcome(t, "unscoped", scoped, unscoped)

	if !scoped.InterestScoped || unscoped.InterestScoped {
		t.Fatalf("scoping flags wrong: scoped=%v unscoped=%v", scoped.InterestScoped, unscoped.InterestScoped)
	}
	if scoped.GhostRows == 0 {
		t.Fatalf("scoped exchange fanned nothing: %+v", scoped)
	}
	if scoped.GhostRows >= scoped.GhostRowsAllToAll {
		t.Fatalf("scoping saved nothing: %d fanned vs %d all-to-all", scoped.GhostRows, scoped.GhostRowsAllToAll)
	}
	if unscoped.GhostRows != unscoped.GhostRowsAllToAll {
		t.Fatalf("unscoped run should fan the full baseline: %d vs %d", unscoped.GhostRows, unscoped.GhostRowsAllToAll)
	}
	// The scoped run stays deterministic: a rerun reproduces outcomes
	// and fan-out counters exactly.
	again, err := RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameMetroOutcome(t, "scoped-rerun", scoped, again)
	if again.GhostRows != scoped.GhostRows || again.GhostRowsAllToAll != scoped.GhostRowsAllToAll {
		t.Fatalf("fan-out not reproducible: %d/%d then %d/%d",
			scoped.GhostRows, scoped.GhostRowsAllToAll, again.GhostRows, again.GhostRowsAllToAll)
	}
	t.Logf("hotspot metropolis ghost rows: %d scoped vs %d all-to-all (%.0f%% saved)",
		scoped.GhostRows, scoped.GhostRowsAllToAll,
		100*(1-float64(scoped.GhostRows)/float64(scoped.GhostRowsAllToAll)))
}
