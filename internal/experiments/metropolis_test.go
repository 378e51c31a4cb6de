package experiments

import (
	"math"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/scc"
	"facs/internal/shard"
)

// metroTestConfig is a small-but-busy scenario: 37 cells, a few thousand
// decisions, handoffs and ticks exercised, finished in well under a
// second per run.
func metroTestConfig(factory func(shard.View) (cac.Controller, error)) MetropolisConfig {
	return MetropolisConfig{
		NewController: factory,
		Rings:         3,
		TargetCalls:   600,
		Waves:         24,
		WavesPerDay:   24,
		MaxBatch:      32,
		Seed:          1,
	}
}

// sameMetroOutcome compares everything that must be byte-identical
// across repeats, modes and shard counts (wall-clock and shard split
// excluded).
func sameMetroOutcome(t *testing.T, label string, a, b MetropolisResult) {
	t.Helper()
	if a.DecisionHash != b.DecisionHash {
		t.Errorf("%s: DecisionHash %#x != %#x", label, a.DecisionHash, b.DecisionHash)
	}
	type counters struct {
		requested, accepted, committed, released int
		handoffs, handoffDropped, peak, final    int
		waves, cells                             int
	}
	ca := counters{a.Requested, a.Accepted, a.Committed, a.Released,
		a.Handoffs, a.HandoffDropped, a.PeakConcurrent, a.FinalActive, a.Waves, a.Cells}
	cb := counters{b.Requested, b.Accepted, b.Committed, b.Released,
		b.Handoffs, b.HandoffDropped, b.PeakConcurrent, b.FinalActive, b.Waves, b.Cells}
	if ca != cb {
		t.Errorf("%s: counters diverged:\n  a=%+v\n  b=%+v", label, ca, cb)
	}
}

func TestMetropolisRepeatable(t *testing.T) {
	cfg := metroTestConfig(shardGuardFactory)
	a, err := RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameMetroOutcome(t, "repeat", a, b)
	assertConserved(t, "repeat", a)
	if a.Requested == 0 || a.Committed == 0 || a.Handoffs == 0 || a.Released == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
}

// TestMetropolisModeIdentity pins the cross-path contract for
// cell-local controllers: batch == sharded at every shard count for
// equal MaxBatch, including the one-at-a-time MaxBatch 1.
func TestMetropolisModeIdentity(t *testing.T) {
	base := metroTestConfig(shardGuardFactory)

	batch, err := RunMetropolis(base)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Mode != MetroBatch {
		t.Fatalf("default mode = %v, want batch", batch.Mode)
	}
	for _, shards := range []int{1, 2, 4} {
		cfg := base
		cfg.Mode = MetroSharded
		cfg.Shards = shards
		res, err := RunMetropolis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shards != shards {
			t.Fatalf("Shards = %d, want %d", res.Shards, shards)
		}
		sameMetroOutcome(t, res.Mode.String(), batch, res)
	}

	batch1 := base
	batch1.MaxBatch = 1
	batch1Res, err := RunMetropolis(batch1)
	if err != nil {
		t.Fatal(err)
	}
	sharded1 := base
	sharded1.Mode = MetroSharded
	sharded1.MaxBatch = 1
	sharded1.Shards = 2
	sharded1Res, err := RunMetropolis(sharded1)
	if err != nil {
		t.Fatal(err)
	}
	sameMetroOutcome(t, "batch1-vs-sharded1", batch1Res, sharded1Res)
}

// TestMetropolisFACSModeIdentity runs the compiled fuzzy controller
// through the same cross-path pin (it is cell-local too).
func TestMetropolisFACSModeIdentity(t *testing.T) {
	base := metroTestConfig(shardFACSFactory)
	base.TargetCalls = 300
	batch, err := RunMetropolis(base)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Accepted == 0 || batch.Accepted == batch.Requested {
		t.Fatalf("FACS run not exercising admission: %d/%d", batch.Accepted, batch.Requested)
	}
	cfg := base
	cfg.Mode = MetroSharded
	cfg.Shards = 4
	res, err := RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameMetroOutcome(t, "facs-sharded", batch, res)
}

// TestMetropolisSCCReproducible covers the non-cell-local regime on the
// metropolis workload: per-shard SCC demand ledgers are deterministic
// run-to-run at every shard count. Outcomes legitimately differ BETWEEN
// shard counts (ghost demand is exchanged only at tick barriers, so
// mid-tick decisions see only local demand) — the byte-identity
// guarantee across shard counts is the cell-local controllers'
// contract, pinned by TestMetropolisModeIdentity.
func TestMetropolisSCCReproducible(t *testing.T) {
	factory := func(v shard.View) (cac.Controller, error) {
		return scc.NewLedger(scc.Config{Network: v.Network()})
	}
	base := metroTestConfig(factory)
	base.Mode = MetroSharded
	for _, shards := range []int{1, 2, 4} {
		cfg := base
		cfg.Shards = shards
		first, err := RunMetropolis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first.Requested == 0 || first.Accepted == 0 || first.Handoffs == 0 {
			t.Fatalf("degenerate SCC run at %d shards: %+v", shards, first)
		}
		again, err := RunMetropolis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameMetroOutcome(t, first.Mode.String(), first, again)
	}
}

// metroGoldenHash is the frozen DecisionHash of metroTestConfig on the
// guard channel.
const metroGoldenHash uint64 = 0x46af924cb8e9eacc

// TestMetropolisGolden freezes the guard-channel scenario's decision
// digest: any change to workload generation, chunking, commit order or
// the hash itself shows up as a different constant.
func TestMetropolisGolden(t *testing.T) {
	res, err := RunMetropolis(metroTestConfig(shardGuardFactory))
	if err != nil {
		t.Fatal(err)
	}
	if res.DecisionHash != metroGoldenHash {
		t.Errorf("DecisionHash = %#x, want %#x (golden)", res.DecisionHash, metroGoldenHash)
	}
}

// TestMetropolisPopulationTracksTarget checks the diurnal generator
// actually builds a population of the configured scale in an
// uncongested network.
func TestMetropolisPopulationTracksTarget(t *testing.T) {
	cfg := metroTestConfig(func(shard.View) (cac.Controller, error) {
		return cac.CompleteSharing{}, nil
	})
	cfg.TargetCalls = 2000
	cfg.CapacityBU = 100000 // no blocking: population is pure workload shape
	res, err := RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakConcurrent < cfg.TargetCalls/2 {
		t.Fatalf("PeakConcurrent = %d, want >= %d (TargetCalls %d)",
			res.PeakConcurrent, cfg.TargetCalls/2, cfg.TargetCalls)
	}
	if res.PeakConcurrent > 2*cfg.TargetCalls {
		t.Fatalf("PeakConcurrent = %d overshoots TargetCalls %d", res.PeakConcurrent, cfg.TargetCalls)
	}
	if res.AcceptedPct() != 100 {
		t.Fatalf("uncongested run blocked calls: %v%%", res.AcceptedPct())
	}
}

// TestMetropolisHotspotSkew verifies rush-hour arrivals concentrate on
// hotspot-adjacent cells.
func TestMetropolisHotspotSkew(t *testing.T) {
	cfg := metroTestConfig(shardGuardFactory)
	net, err := newMetroNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := newMetroWorkload(cfg.withDefaults(), net)
	// At 08:30 (rush) the hotspot-weighted mass must exceed the uniform
	// share; at 03:00 it must be nearly uniform.
	w.ensureCellCum(findWaveAtHour(t, w, 8.5))
	rushTotal := w.cellCum[len(w.cellCum)-1]
	if rushTotal <= float64(len(w.cellCum))*1.05 {
		t.Fatalf("rush-hour weights %.1f not skewed above uniform %d", rushTotal, len(w.cellCum))
	}
	w.ensureCellCum(findWaveAtHour(t, w, 3))
	nightTotal := w.cellCum[len(w.cellCum)-1]
	if nightTotal >= float64(len(w.cellCum))*1.05 {
		t.Fatalf("night weights %.1f should be near-uniform %d", nightTotal, len(w.cellCum))
	}
}

func findWaveAtHour(t *testing.T, w *metroWorkload, hour float64) int {
	t.Helper()
	best, bestDiff := 0, 1e9
	for wave := 0; wave < w.cfg.Waves; wave++ {
		d := w.hourOf(wave) - hour
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			best, bestDiff = wave, d
		}
	}
	return best
}

func newMetroNet(cfg MetropolisConfig) (*cell.Network, error) {
	c := cfg.withDefaults()
	return cell.NewNetwork(cell.NetworkConfig{
		Rings:       c.Rings,
		CellRadiusM: c.CellRadiusM,
		CapacityBU:  c.CapacityBU,
	})
}

func TestMetropolisValidation(t *testing.T) {
	if _, err := RunMetropolis(MetropolisConfig{}); err == nil {
		t.Fatal("missing factory should error")
	}
	for _, mode := range []MetropolisMode{1, 99} {
		bad := metroTestConfig(shardGuardFactory)
		bad.Mode = mode
		if _, err := RunMetropolis(bad); err == nil {
			t.Fatalf("mode %v should error", mode)
		}
	}
	bad := metroTestConfig(shardGuardFactory)
	bad.SpeedKmh = Span{Min: math.NaN(), Max: 10}
	if _, err := RunMetropolis(bad); err == nil {
		t.Fatal("NaN speed span should error")
	}
}
