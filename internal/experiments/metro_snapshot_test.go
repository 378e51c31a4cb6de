package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"facs/internal/snap"
)

// runInterrupted simulates a crash at the half-way wave: it runs cfg to
// Waves/2, cuts a snapshot, abandons the run, then warm-starts a fresh
// run from the snapshot and replays the remaining waves.
func runInterrupted(t *testing.T, cfg MetropolisConfig) MetropolisResult {
	t.Helper()
	r1, err := newMetroRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := r1.cfg.Waves / 2
	for r1.wave < half {
		if err := r1.runWave(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := r1.snapshotTo(&buf); err != nil {
		t.Fatalf("snapshotTo: %v", err)
	}
	if err := r1.close(); err != nil {
		t.Fatal(err)
	}

	r2, err := newMetroRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.restoreFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("restoreFrom: %v", err)
	}
	if r2.wave != half {
		t.Fatalf("restored wave cursor %d, want %d", r2.wave, half)
	}
	for r2.wave < r2.cfg.Waves {
		if err := r2.runWave(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r2.finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMetropolisCrashRecovery pins the restore-then-replay determinism
// contract end to end: interrupting a metropolis day at the half-way
// snapshot and replaying the remainder reproduces the uninterrupted
// run's DecisionHash and every outcome counter — for the stateless
// guard baseline on the one-at-a-time loop, the batch path and shard
// counts 1/2/4, for the compiled FACS controller, and for the stateful SCC
// demand ledger (whose per-shard demand matrices restore verbatim).
func TestMetropolisCrashRecovery(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*MetropolisConfig)
	}{
		{"guard/single", func(c *MetropolisConfig) { c.Mode = MetroBatch; c.MaxBatch = 1 }},
		{"guard/batch", func(c *MetropolisConfig) { c.Mode = MetroBatch }},
		{"guard/sharded=1", func(c *MetropolisConfig) { c.Mode = MetroSharded; c.Shards = 1 }},
		{"guard/sharded=2", func(c *MetropolisConfig) { c.Mode = MetroSharded; c.Shards = 2 }},
		{"guard/sharded=4", func(c *MetropolisConfig) { c.Mode = MetroSharded; c.Shards = 4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := metroTestConfig(shardGuardFactory)
			tc.mutate(&cfg)
			full, err := RunMetropolis(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameMetroOutcome(t, tc.name, full, runInterrupted(t, cfg))
		})
	}
	t.Run("facs/batch", func(t *testing.T) {
		cfg := metroTestConfig(shardFACSFactory)
		cfg.TargetCalls = 300
		full, err := RunMetropolis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameMetroOutcome(t, "facs/batch", full, runInterrupted(t, cfg))
	})
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("scc/sharded=%d", shards), func(t *testing.T) {
			cfg := metroTestConfig(shardLedgerFactory)
			cfg.Mode = MetroSharded
			cfg.Shards = shards
			full, err := RunMetropolis(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameMetroOutcome(t, "scc", full, runInterrupted(t, cfg))
		})
	}
}

// TestMetropolisSnapshotFiles pins the durable wiring through
// RunMetropolis itself: periodic snapshots land atomically in
// SnapshotDir on the tick cadence, and Restore warm-starts from the
// file. The last periodic snapshot falls on the final wave, so the
// restored run finishes immediately with the uninterrupted outcome.
func TestMetropolisSnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := metroTestConfig(shardGuardFactory)
	cfg.SnapshotDir = dir
	cfg.SnapshotEveryTicks = 1

	full, err := RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 24 waves, a tick barrier every 4: snapshots at waves 4..24.
	if full.Snapshots != 6 {
		t.Fatalf("Snapshots = %d, want 6", full.Snapshots)
	}
	path := filepath.Join(dir, MetroSnapshotFile)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	if names, err := filepath.Glob(filepath.Join(dir, "*")); err != nil || len(names) != 1 {
		t.Fatalf("snapshot dir holds %v, want only the snapshot (atomic rename leaves no temp files)", names)
	}

	restored := cfg
	restored.SnapshotDir = ""
	restored.SnapshotEveryTicks = 0
	restored.Restore = path
	res, err := RunMetropolis(restored)
	if err != nil {
		t.Fatal(err)
	}
	sameMetroOutcome(t, "restore-from-file", full, res)
	if res.Elapsed < 0 {
		t.Fatal("negative elapsed")
	}
}

// TestMetropolisStopChannel pins graceful early exit: a fired Stop
// channel ends the run before the next wave, writes a final snapshot,
// and a restored run completes the day with the uninterrupted outcome.
func TestMetropolisStopChannel(t *testing.T) {
	dir := t.TempDir()
	stop := make(chan struct{})
	close(stop)

	cfg := metroTestConfig(shardGuardFactory)
	cfg.SnapshotDir = dir
	cfg.Stop = stop
	res, err := RunMetropolis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("run did not report Stopped")
	}
	if res.Waves != 0 {
		t.Fatalf("stopped run completed %d waves, want 0", res.Waves)
	}
	if res.Snapshots != 1 {
		t.Fatalf("Snapshots = %d, want 1 (the final on-stop snapshot)", res.Snapshots)
	}

	uninterrupted := metroTestConfig(shardGuardFactory)
	full, err := RunMetropolis(uninterrupted)
	if err != nil {
		t.Fatal(err)
	}
	resumed := uninterrupted
	resumed.Restore = filepath.Join(dir, MetroSnapshotFile)
	got, err := RunMetropolis(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stopped {
		t.Fatal("resumed run reports Stopped")
	}
	sameMetroOutcome(t, "resume-after-stop", full, got)
}

// TestMetropolisSnapshotStaleAndCorrupt pins the guard rails at the
// driver level: a snapshot refuses a run whose workload-shaping
// configuration differs, and damage surfaces a snapshot sentinel.
func TestMetropolisSnapshotStaleAndCorrupt(t *testing.T) {
	cfg := metroTestConfig(shardGuardFactory)
	r, err := newMetroRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r.wave < 6 {
		if err := r.runWave(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := r.snapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	otherSeed := cfg
	otherSeed.Seed = 2
	r2, err := newMetroRun(otherSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.close()
	if err := r2.restoreFrom(bytes.NewReader(blob)); !errors.Is(err, snap.ErrSnapshotStale) {
		t.Errorf("seed mismatch: err = %v, want ErrSnapshotStale", err)
	}

	r3, err := newMetroRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.close()
	for _, i := range []int{10, len(blob) / 2, len(blob) - 3} {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		if err := r3.restoreFrom(bytes.NewReader(mut)); err == nil ||
			(!errors.Is(err, snap.ErrSnapshotCorrupt) && !errors.Is(err, snap.ErrSnapshotStale)) {
			t.Errorf("flip at %d: err = %v, want snapshot sentinel", i, err)
		}
	}
	if err := r3.restoreFrom(bytes.NewReader(blob[:len(blob)-7])); !errors.Is(err, snap.ErrSnapshotCorrupt) {
		t.Errorf("truncation: err = %v, want ErrSnapshotCorrupt", err)
	}
	// The good blob still restores after the failed attempts.
	if err := r3.restoreFrom(bytes.NewReader(blob)); err != nil {
		t.Fatalf("restore of good blob: %v", err)
	}
}

// TestMetropolisRestoresCommittedSnapshots restores snapshot files cut
// at the half-way wave by the configuration layout that carried the
// scenario shape, the interest-scope switch and the retired mode value
// 1 as settable fields. Each must still restore, replay to the end and
// match the uninterrupted run's pinned DecisionHash: the constants that
// replaced those fields are hashed into the snapshot configuration
// exactly as the fields were.
func TestMetropolisRestoresCommittedSnapshots(t *testing.T) {
	contested := contestedConfig(shardFACSFactory)
	contested.Mode, contested.Shards = MetroSharded, 4
	guard := metroTestConfig(shardGuardFactory)
	sccCfg := metroTestConfig(shardLedgerFactory)
	sccCfg.Mode, sccCfg.Shards = MetroSharded, 2
	for _, tc := range []struct {
		file string
		cfg  MetropolisConfig
		hash uint64
	}{
		{"contested-facs-sharded4.snap", contested, 0x1ed4b4ae634d127c},
		{"guard-batch.snap", guard, metroGoldenHash},
		{"scc-sharded2.snap", sccCfg, 0x63d1dd13b22384bc},
	} {
		t.Run(tc.file, func(t *testing.T) {
			full, err := RunMetropolis(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if full.DecisionHash != tc.hash {
				t.Fatalf("uninterrupted DecisionHash = %#x, want %#x", full.DecisionHash, tc.hash)
			}
			r, err := newMetroRun(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			if err := r.restoreFromFile(filepath.Join("testdata", tc.file)); err != nil {
				t.Fatal(err)
			}
			if half := r.cfg.Waves / 2; r.wave != half {
				t.Fatalf("restored wave cursor %d, want %d", r.wave, half)
			}
			for r.wave < r.cfg.Waves {
				if err := r.runWave(); err != nil {
					t.Fatal(err)
				}
			}
			res, err := r.finish()
			if err != nil {
				t.Fatal(err)
			}
			sameMetroOutcome(t, tc.file, full, res)
		})
	}
}
