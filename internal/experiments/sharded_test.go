package experiments

import (
	"fmt"
	"testing"

	"facs/internal/cac"
	"facs/internal/facs"
	"facs/internal/scc"
	"facs/internal/shard"
)

// shardGuardFactory hands every shard the same stateless guard-channel
// baseline (cell-local: outcomes must be shard-count-invariant).
func shardGuardFactory(shard.View) (cac.Controller, error) {
	return cac.NewGuardChannel(8)
}

// shardFACSFactory shares one immutable exact FACS across all shards.
var sharedFACSSystem = facs.Must()

func shardFACSFactory(shard.View) (cac.Controller, error) {
	return sharedFACSSystem, nil
}

// shardLedgerFactory builds a fresh SCC demand ledger per shard — NOT
// cell-local: determinism holds per fixed shard count only.
func shardLedgerFactory(v shard.View) (cac.Controller, error) {
	return scc.NewLedger(scc.Config{Network: v.Network()})
}

// contestedConfig is the small-ring closed loop the sharded identity
// pins run on: 19 cells at the paper's 40 BU, so capacity binds and
// both accepts and rejects (and handoff drops) occur, with handoffs
// every other wave and a barrier tick every fourth.
func contestedConfig(factory func(shard.View) (cac.Controller, error)) MetropolisConfig {
	return MetropolisConfig{
		NewController: factory,
		Rings:         2,
		CapacityBU:    40,
		TargetCalls:   400,
		Waves:         24,
		WavesPerDay:   24,
		MaxBatch:      16,
		Seed:          29,
	}
}

// assertConserved checks call conservation on an uninterrupted run:
// every committed call is still active unless it was released or
// dropped on a failed handoff.
func assertConserved(t *testing.T, label string, r MetropolisResult) {
	t.Helper()
	if want := r.Committed - r.Released - r.HandoffDropped; r.FinalActive != want {
		t.Errorf("%s: FinalActive %d != Committed %d - Released %d - HandoffDropped %d",
			label, r.FinalActive, r.Committed, r.Released, r.HandoffDropped)
	}
}

// sweepShards runs base on the inline batch engine — the sequential
// oracle, which runs no shard code — and then on the sharded engine at
// 1, 2, 4 and 8 shards, requiring each sharded run to reproduce the
// oracle's DecisionHash and counters. It returns the oracle and the
// sharded results in shard-count order.
func sweepShards(t *testing.T, label string, base MetropolisConfig) (MetropolisResult, []MetropolisResult) {
	t.Helper()
	batch := base
	batch.Mode = MetroBatch
	oracle, err := RunMetropolis(batch)
	if err != nil {
		t.Fatal(err)
	}
	assertConserved(t, label+"/batch", oracle)
	var results []MetropolisResult
	for _, n := range []int{1, 2, 4, 8} {
		cfg := base
		cfg.Mode = MetroSharded
		cfg.Shards = n
		res, err := RunMetropolis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shards != n {
			t.Fatalf("%s: ran %d shards, want %d", label, res.Shards, n)
		}
		runLabel := fmt.Sprintf("%s/shards-%d", label, n)
		sameMetroOutcome(t, runLabel, oracle, res)
		assertConserved(t, runLabel, res)
		results = append(results, res)
	}
	return oracle, results
}

// TestShardedDeterminism is the acceptance suite for the sharded
// engine: the contested closed loop — admissions, holds, releases,
// barrier ticks and neighbour handoffs interleaved — must produce the
// inline batch engine's outcome at shard counts 1, 2, 4 and 8 for
// cell-local controllers, and the one-at-a-time inline loop's outcome
// at MaxBatch 1. Handoffs must actually cross shards above one shard.
func TestShardedDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory func(shard.View) (cac.Controller, error)
	}{
		{"guard", shardGuardFactory},
		{"facs", shardFACSFactory},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := contestedConfig(tc.factory)
			oracle, results := sweepShards(t, tc.name, base)
			if oracle.Handoffs == 0 || oracle.Released == 0 || oracle.HandoffDropped == 0 ||
				oracle.Accepted == 0 || oracle.Accepted == oracle.Requested {
				t.Fatalf("uncontested workload: %+v", oracle)
			}
			for _, res := range results {
				if res.Shards > 1 && res.CrossShard == 0 {
					t.Fatalf("shards-%d: no cross-shard handoffs (%d handoffs)", res.Shards, res.Handoffs)
				}
				if res.Shards == 1 && res.CrossShard != 0 {
					t.Fatalf("shards-1: %d cross-shard handoffs", res.CrossShard)
				}
			}

			// At MaxBatch 1 the one-at-a-time loop is the oracle.
			single := base
			single.Mode = MetroBatch
			single.MaxBatch = 1
			singleRes, err := RunMetropolis(single)
			if err != nil {
				t.Fatal(err)
			}
			assertConserved(t, tc.name+"/single", singleRes)
			sharded1 := base
			sharded1.Mode = MetroSharded
			sharded1.Shards = 4
			sharded1.MaxBatch = 1
			sharded1Res, err := RunMetropolis(sharded1)
			if err != nil {
				t.Fatal(err)
			}
			sameMetroOutcome(t, tc.name+"/single-vs-sharded-maxbatch-1", singleRes, sharded1Res)
		})
	}
}
