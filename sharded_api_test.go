package facs_test

import (
	"testing"

	"facs"
)

// Public-API smoke tests for the sharded admission engine; the
// exhaustive determinism suites live in internal/shard and
// internal/experiments.

func TestPublicShardedEngine(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := facs.NewShardedEngine(facs.ShardedEngineConfig{
		Network: netw,
		Shards:  3,
		Commit:  true,
		NewController: func(v facs.ShardView) (facs.Controller, error) {
			if v.NumCells() == 0 {
				t.Errorf("shard %d owns no cells", v.Index())
			}
			return facs.CompleteSharing{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !eng.Stats().CellLocal {
		t.Fatal("complete-sharing shards should be cell-local")
	}

	stations := netw.Stations()
	reqs := []facs.AdmissionRequest{
		{Call: facs.Call{ID: 1, Class: facs.Voice, BU: 5}, Station: stations[0]},
		{Call: facs.Call{ID: 2, Class: facs.Video, BU: 10}, Station: stations[1]},
	}
	responses := make([]facs.ServeResponse, len(reqs))
	if err := eng.SubmitWaveTo(reqs, responses); err != nil {
		t.Fatal(err)
	}
	for i, r := range responses {
		if r.Err != nil || !r.Committed {
			t.Fatalf("response %d: %+v", i, r)
		}
	}

	res := eng.HandoffCall(facs.ShardHandoff{CallID: 1, From: stations[0], To: stations[1], Now: 3})
	if res.Err != nil || res.Response.Err != nil || !res.Response.Committed {
		t.Fatalf("handoff: %+v", res)
	}
	if st := eng.Stats(); st.Handoffs != 1 || st.Total.Decided != 3 {
		t.Fatalf("stats: %+v", st)
	}

	// The single-shard view hands replay oracles the whole network.
	if v := facs.SingleShardView(netw); v.NumCells() != netw.NumCells() {
		t.Fatalf("single view owns %d cells, want %d", v.NumCells(), netw.NumCells())
	}
}

// TestPublicGhostExchange smokes the demand-exchange surface: SCC
// ledgers built per shard enable the tick-barrier exchange, and the
// metropolis closed loop reports the demand rows it fanned to sibling
// shards.
func TestPublicGhostExchange(t *testing.T) {
	var _ facs.DemandExchangingController = (*facs.SCCLedger)(nil)
	res, err := facs.RunMetropolis(facs.MetropolisConfig{
		NewController: func(v facs.ShardView) (facs.Controller, error) {
			return facs.NewSCCLedger(facs.SCCConfig{Network: v.Network()})
		},
		Mode:           facs.MetroSharded,
		Shards:         4,
		Rings:          2,
		CapacityBU:     40,
		TargetCalls:    200,
		Waves:          12,
		WavesPerDay:    24,
		TickEveryWaves: 2,
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 || res.Accepted == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if res.GhostRows == 0 || res.GhostRows > res.GhostRowsAllToAll {
		t.Fatalf("exchange did not run: %d rows fanned of %d all-to-all", res.GhostRows, res.GhostRowsAllToAll)
	}
}

// TestPublicMetropolisShardSweep runs one contested closed loop at two
// shard counts through the root facade: for a cell-local controller the
// outcome is identical, and only the cross-shard handoff split moves.
func TestPublicMetropolisShardSweep(t *testing.T) {
	cfg := facs.MetropolisConfig{
		NewController: func(facs.ShardView) (facs.Controller, error) {
			return facs.NewGuardChannel(8)
		},
		Mode:        facs.MetroSharded,
		Rings:       2,
		CapacityBU:  40,
		TargetCalls: 200,
		Waves:       12,
		WavesPerDay: 24,
		Seed:        3,
	}
	var results []facs.MetropolisResult
	for _, shards := range []int{1, 4} {
		cfg.Shards = shards
		res, err := facs.RunMetropolis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	one, four := results[0], results[1]
	if one.DecisionHash != four.DecisionHash || one.Accepted != four.Accepted || one.Handoffs != four.Handoffs {
		t.Fatalf("shard counts diverge: %+v vs %+v", four, one)
	}
	if one.Handoffs == 0 || one.CrossShard != 0 || four.CrossShard == 0 || four.Shards != 4 {
		t.Fatalf("cross-shard split: 1 shard %d of %d, 4 shards %d of %d",
			one.CrossShard, one.Handoffs, four.CrossShard, four.Handoffs)
	}
}
