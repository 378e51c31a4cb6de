package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"

	"facs/internal/cell"
	"facs/internal/traffic"
)

// TestMetropolisStreamingIdentity pins the streaming arrival path on
// every decision path: arrivals are generated into MaxBatch-sized
// scratch and handed to the engine chunk by chunk, and every path and
// shard count must reproduce the frozen golden digest, which was
// recorded on whole-wave delivery. On this scenario chunking changes
// no outcome, so the one-at-a-time loop (MaxBatch 1) matches it too.
func TestMetropolisStreamingIdentity(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*MetropolisConfig)
	}{
		{"single", func(c *MetropolisConfig) { c.Mode = MetroBatch; c.MaxBatch = 1 }},
		{"batch", func(c *MetropolisConfig) { c.Mode = MetroBatch }},
		{"sharded-1", func(c *MetropolisConfig) { c.Mode = MetroSharded; c.Shards = 1 }},
		{"sharded-2", func(c *MetropolisConfig) { c.Mode = MetroSharded; c.Shards = 2 }},
		{"sharded-4", func(c *MetropolisConfig) { c.Mode = MetroSharded; c.Shards = 4 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := metroTestConfig(shardGuardFactory)
			v.mutate(&cfg)
			res, err := RunMetropolis(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.DecisionHash != metroGoldenHash {
				t.Errorf("DecisionHash = %#x, want %#x (golden)", res.DecisionHash, metroGoldenHash)
			}
			if res.Requested == 0 || res.Committed == 0 {
				t.Fatalf("degenerate run: %+v", res)
			}
			assertConserved(t, v.name, res)
		})
	}
}

// TestMetropolisStreamingIdentitySCC extends the pin to the
// non-cell-local SCC ledger: a 1-shard engine has no siblings to hide
// demand from, so the ledger streamed through it must reproduce the
// inline single-ledger run exactly.
func TestMetropolisStreamingIdentitySCC(t *testing.T) {
	cfg := metroTestConfig(shardLedgerFactory)
	inline, err := RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = MetroSharded
	cfg.Shards = 1
	sharded, err := RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameMetroOutcome(t, "scc-sharded-1", inline, sharded)
	assertConserved(t, "scc-batch", inline)
	if inline.Handoffs == 0 || inline.Released == 0 {
		t.Fatalf("degenerate run: %+v", inline)
	}
}

// TestMetropolisSteadyStateAllocs is the allocation gate on the
// streaming wave loop: once the run has warmed through a full diurnal
// day (population high-water reached, every scratch buffer at final
// size), additional waves must allocate nothing — zero allocations per
// decision, not merely few — on the inline paths and on the 1-shard
// and 2-shard engines alike. The 2-shard engine hands its second slices
// to a persistent shard worker through a preallocated slot, so a chunk
// spanning both shards starts no goroutine; the gate checks that both
// shards decided requests during the measured waves. Station pools are
// grown to their capacity bound up front, so the only allocator the
// loop otherwise retains (per-station population high-water growth,
// bounded by CapacityBU) is paid before measurement.
func TestMetropolisSteadyStateAllocs(t *testing.T) {
	variants := []struct {
		name     string
		mode     MetropolisMode
		shards   int
		maxBatch int
	}{
		{"single", MetroBatch, 1, 1},
		{"batch", MetroBatch, 1, 0},
		{"sharded-1", MetroSharded, 1, 0},
		{"sharded-2", MetroSharded, 2, 0},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := metroTestConfig(shardGuardFactory)
			cfg.Mode, cfg.Shards = v.mode, v.shards
			if v.maxBatch > 0 {
				cfg.MaxBatch = v.maxBatch
			}
			cfg.Waves = 3 * cfg.WavesPerDay
			r, err := newMetroRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			for _, bs := range r.workload.stations {
				growPoolToCapacity(t, bs)
			}
			perShard := func() []int64 {
				se, ok := r.engine.(*shardMetroEngine)
				if !ok {
					return nil
				}
				var decided []int64
				for _, st := range se.engine.Stats().PerShard {
					decided = append(decided, st.Decided)
				}
				return decided
			}
			// Warm-up: one full day, reaching the ledger and scratch
			// high-water marks. It runs on the one P the measurement
			// uses, so the runtime's per-P caches (the sudogs the shard
			// helper and a producer goroutine park on, the timer heap)
			// are warm too: resizing to one P drops the other P's
			// caches. The first wave starts the drawing here, before
			// measurement.
			procs := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(procs)
			warm := cfg.WavesPerDay
			for r.wave < warm {
				if err := r.runWave(); err != nil {
					t.Fatal(err)
				}
			}
			const measured = 12
			decisionsBefore := r.result.Requested + r.result.Handoffs
			shardBefore := perShard()
			// Measured on one P, like testing.AllocsPerRun. Every
			// allocation fails the gate: a per-wave average floored to
			// whole allocations would let up to measured-1 strays
			// through. The collector is off over the measured waves
			// (SetGCPercent(-1) returns once any cycle in progress has
			// finished): waves that allocate nothing never need a cycle,
			// and a cycle ending among them lets the runtime's own
			// bookkeeping allocate on the measured P (the scavenger's
			// timer-heap growth). Every allocation the waves make still
			// counts.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			for i := 0; i < measured; i++ {
				if err := r.runWave(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&ms)
			allocs := ms.Mallocs - mallocs
			decisions := r.result.Requested + r.result.Handoffs - decisionsBefore
			if decisions == 0 {
				t.Fatal("steady-state waves rendered no decisions")
			}
			for s, n := range perShard() {
				if n == shardBefore[s] {
					t.Fatalf("shard %d decided nothing during the measured waves", s)
				}
			}
			t.Logf("%d waves: %d decisions, %d allocs", measured, decisions, allocs)
			if allocs > 0 {
				t.Errorf("steady-state waves allocate: %d allocs over %d waves (%d decisions)",
					allocs, measured, decisions)
			}
		})
	}
}

// growPoolToCapacity grows an empty station's call table to its hard
// bound by admitting, then releasing, one 1-BU call per BU of capacity:
// every call holds at least 1 BU, so the table never resizes again.
func growPoolToCapacity(t *testing.T, bs *cell.BaseStation) {
	t.Helper()
	for id := 1; id <= bs.Capacity(); id++ {
		if err := bs.Admit(cell.Call{ID: -id, Class: traffic.Text, BU: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for id := 1; id <= bs.Capacity(); id++ {
		if _, err := bs.Release(-id); err != nil {
			t.Fatal(err)
		}
	}
}
