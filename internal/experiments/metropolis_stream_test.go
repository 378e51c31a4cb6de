package experiments

import (
	"runtime"
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
// size), additional waves on the inline paths and on the 1-shard engine
// must allocate nothing — zero allocations per decision, not merely
// few. On the 2-shard engine the only allocations allowed are the
// fan-out goroutines of chunks spanning both shards (one closure each,
// counted by shard.Stats.FanOuts); releases, handoffs and ticks allocate
// nothing. Station pools are grown to their capacity bound up front,
// so the only allocator the loop otherwise retains (per-station
// population high-water growth, bounded by CapacityBU) is paid before
// measurement.
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
			fanOuts := func() int64 {
				if se, ok := r.engine.(*shardMetroEngine); ok {
					return se.engine.Stats().FanOuts
				}
				return 0
			}
			// Warm-up: one full day, reaching the ledger and scratch
			// high-water marks. It runs on the one P the measurement
			// uses, so the runtime's per-P caches (the sudogs a
			// fan-out's WaitGroup.Wait and the arrival producer's
			// channel waits park on, the timer heap) are warm too:
			// resizing to one P drops the other P's caches. The first
			// wave starts the producer here, before measurement.
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
			spawnedBefore := fanOuts()
			// Measured on one P, like testing.AllocsPerRun, with the
			// fan-out goroutines counted over exactly the measured waves.
			// Every allocation beyond those fails the gate: a per-wave
			// average floored to whole allocations would let up to
			// measured-1 strays through. On one P a fan-out goroutine
			// exits onto the P that starts the next one, so the runtime
			// reuses its g instead of allocating a fresh one while
			// another P's free list fills.
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
			spawned := fanOuts() - spawnedBefore
			decisions := r.result.Requested + r.result.Handoffs - decisionsBefore
			if decisions == 0 {
				t.Fatal("steady-state waves rendered no decisions")
			}
			if v.shards == 2 && spawned == 0 {
				t.Fatal("2-shard waves never fanned out")
			}
			t.Logf("%d waves: %d decisions, %d allocs, %d fan-out goroutines", measured, decisions, allocs, spawned)
			if excess := int64(allocs) - spawned; excess > 0 {
				t.Errorf("steady-state waves allocate: %d allocs over %d waves (%d decisions) beyond one per fan-out goroutine (%d)",
					allocs, measured, decisions, spawned)
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
