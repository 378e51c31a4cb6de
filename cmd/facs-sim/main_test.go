package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"facs"
	iexp "facs/internal/experiments"
	ifacs "facs/internal/facs"
)

// TestBuildController holds facs-sim to the contestant catalogue:
// -multicell accepts every catalogue name, single cell every name but
// scc, and an unknown name fails with the catalogue's list (the same
// list facs-serve's TestBuildController expects).
func TestBuildController(t *testing.T) {
	for _, name := range append(append([]string{}, iexp.ContestantNames...), "bogus") {
		t.Run(name, func(t *testing.T) {
			multi := run([]string{"-multicell", "-n", "10", "-controller", name})
			single := run([]string{"-n", "10", "-controller", name})
			switch name {
			case "bogus":
				for _, err := range []error{multi, single} {
					if err == nil || !strings.Contains(err.Error(), "(valid: facs, scc, cs, guard, threshold)") {
						t.Fatalf("unknown controller should fail with the catalogue's names, got %v", err)
					}
				}
			case "scc":
				if multi != nil {
					t.Fatal(multi)
				}
				if single == nil || !strings.Contains(single.Error(), "scc requires -multicell") {
					t.Fatalf("single-cell scc should be refused, got %v", single)
				}
			default:
				if multi != nil || single != nil {
					t.Fatalf("multicell: %v; single cell: %v", multi, single)
				}
			}
		})
	}
}

func TestRunSingleCellCLI(t *testing.T) {
	if err := run([]string{"-n", "20", "-speed", "30", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "20", "-controller", "cs"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "20", "-controller", "guard", "-guard", "6"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "20", "-dist", "3", "-angle", "45"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleCellSCCRefused(t *testing.T) {
	if err := run([]string{"-n", "10", "-controller", "scc"}); err == nil {
		t.Fatal("single-cell scc should be refused")
	}
}

func TestRunMultiCellCLI(t *testing.T) {
	for _, ctrl := range []string{"facs", "scc", "cs", "guard", "threshold"} {
		if err := run([]string{"-multicell", "-n", "20", "-controller", ctrl}); err != nil {
			t.Fatalf("%s: %v", ctrl, err)
		}
	}
	if err := run([]string{"-multicell", "-n", "20", "-controller", "bogus"}); err == nil {
		t.Fatal("unknown controller should fail")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag should fail")
	}
	if err := run([]string{"-reps", "0"}); err == nil {
		t.Fatal("-reps 0 should fail")
	}
	if err := run([]string{"-compiled", "-controller", "cs"}); err == nil {
		t.Fatal("-compiled with a non-facs controller should fail")
	}
	if err := run([]string{"-n", "5", "-accept-threshold", "NaN"}); err == nil {
		t.Fatal("-accept-threshold NaN should fail")
	}
}

func TestRunCompiledAndReplications(t *testing.T) {
	if err := run([]string{"-n", "20", "-compiled", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "15", "-reps", "3", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-multicell", "-n", "15", "-compiled", "-reps", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSurfaceCacheCLI(t *testing.T) {
	dir := t.TempDir()
	// Cold start compiles and writes the entry (small -grid keeps the
	// test fast); the warm start must load it without compiling.
	if err := run([]string{"-n", "10", "-surface-cache", dir, "-grid", "8", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	before := ifacs.CompileCount()
	if err := run([]string{"-n", "10", "-surface-cache", dir, "-grid", "8", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if got := ifacs.CompileCount() - before; got != 0 {
		t.Fatalf("warm cache start compiled %d times, want 0", got)
	}
	if err := run([]string{"-n", "10", "-grid", "8"}); err == nil {
		t.Fatal("-grid without -compiled should fail")
	}
}

func TestRunBatchCLI(t *testing.T) {
	for _, ctrl := range []string{"facs", "scc", "cs", "guard", "threshold"} {
		if err := run([]string{"-batch", "-n", "200", "-active", "50", "-controller", ctrl}); err != nil {
			t.Fatalf("%s: %v", ctrl, err)
		}
	}
	if err := run([]string{"-batch", "-n", "50", "-controller", "bogus"}); err == nil {
		t.Fatal("unknown controller should fail")
	}
	if err := run([]string{"-batch", "-multicell", "-n", "10"}); err == nil {
		t.Fatal("-batch with -multicell should fail")
	}
	if err := run([]string{"-n", "10", "-active", "5"}); err == nil {
		t.Fatal("-active without -batch should fail")
	}
}

func TestRunMetropolisCLI(t *testing.T) {
	small := []string{"-metropolis", "-rings", "2", "-target", "300", "-waves", "12"}
	for _, ctrl := range []string{"cs", "guard", "threshold", "scc"} {
		if err := run(append(small, "-controller", ctrl)); err != nil {
			t.Fatalf("%s: %v", ctrl, err)
		}
	}
	sharded := append(small, "-controller", "guard", "-metro-mode", "sharded", "-shards", "2", "-measure-mem")
	if err := run(sharded); err != nil {
		t.Fatal(err)
	}
	if err := run(append(small, "-metro-mode", "batch", "-controller", "cs")); err != nil {
		t.Fatal(err)
	}
	if err := run(append(small, "-controller", "guard", "-capacity", "40")); err != nil {
		t.Fatal(err)
	}
}

func TestRunMetropolisBadFlags(t *testing.T) {
	for _, mode := range []string{"bogus", "single"} {
		if err := run([]string{"-metropolis", "-metro-mode", mode}); err == nil {
			t.Fatalf("metro mode %q should fail", mode)
		}
	}
	if err := run([]string{"-metropolis", "-shards", "4"}); err == nil {
		t.Fatal("-shards without sharded mode should fail")
	}
	if err := run([]string{"-metropolis", "-batch"}); err == nil {
		t.Fatal("-metropolis with -batch should fail")
	}
	if err := run([]string{"-metropolis", "-multicell"}); err == nil {
		t.Fatal("-metropolis with -multicell should fail")
	}
	if err := run([]string{"-metropolis", "-reps", "3"}); err == nil {
		t.Fatal("-metropolis with -reps should fail")
	}
	if err := run([]string{"-metropolis", "-controller", "bogus"}); err == nil {
		t.Fatal("unknown controller should fail")
	}
	if err := run([]string{"-metropolis", "-capacity", "-1"}); err == nil {
		t.Fatal("negative -capacity should fail")
	}
	if err := run([]string{"-n", "10", "-capacity", "40"}); err == nil {
		t.Fatal("-capacity without -metropolis should fail")
	}
}

func TestRunShardsBoundedByCells(t *testing.T) {
	sharded := []string{"-metropolis", "-rings", "2", "-target", "200", "-waves", "8",
		"-controller", "guard", "-metro-mode", "sharded"}
	// A rings-2 deployment has 19 cells: a 20th shard could never own one.
	if err := run(append(sharded, "-shards", "20")); err == nil ||
		!strings.Contains(err.Error(), "exceeds the deployment's 19 cells") {
		t.Fatalf("-shards above the cell count should fail clearly, got %v", err)
	}
	if err := run(append(sharded, "-shards", "0")); err == nil {
		t.Fatal("-shards below 1 should fail")
	}
	if err := run(append(sharded, "-shards", "19")); err != nil {
		t.Fatalf("-shards equal to the cell count must stay valid: %v", err)
	}
}

func TestRunElasticShardingFlags(t *testing.T) {
	sharded := []string{"-metropolis", "-rings", "2", "-target", "200", "-waves", "8",
		"-controller", "guard", "-metro-mode", "sharded", "-shards", "2"}
	if err := run(append(sharded, "-partition", "bogus")); err == nil {
		t.Fatal("unknown -partition should fail")
	}
	if err := run(append(sharded, "-rebalance-ticks", "-1")); err == nil {
		t.Fatal("negative -rebalance-ticks should fail")
	}
	if err := run([]string{"-metropolis", "-rings", "2", "-target", "200", "-waves", "8",
		"-controller", "guard", "-partition", "blocks"}); err == nil {
		t.Fatal("-partition without sharded mode should fail")
	}
	if err := run(append(sharded, "-partition", "blocks", "-rebalance-ticks", "1",
		"-rebalance-max-moves", "2")); err != nil {
		t.Fatalf("elastic sharded metropolis: %v", err)
	}
}

// TestRunMetropolisSnapshotFlags drives the durable flags through the
// CLI: a run with periodic snapshots leaves the snapshot file behind,
// a second run warm-starts from it, and the flags refuse non-metropolis
// or inconsistent combinations.
func TestRunMetropolisSnapshotFlags(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-metropolis", "-rings", "2", "-target", "300", "-waves", "12", "-controller", "guard"}
	if err := run(append(base, "-snapshot-dir", dir, "-snapshot-every-ticks", "1")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, facs.MetroSnapshotFile)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing after periodic run: %v", err)
	}
	if err := run(append(base, "-restore", path)); err != nil {
		t.Fatalf("restore run: %v", err)
	}
	if err := run([]string{"-n", "10", "-snapshot-dir", dir}); err == nil {
		t.Fatal("-snapshot-dir without -metropolis should fail")
	}
	if err := run(append(base, "-snapshot-every-ticks", "2")); err == nil {
		t.Fatal("-snapshot-every-ticks without -snapshot-dir should fail")
	}
}

func TestRunBatchRejectsReplicationFlags(t *testing.T) {
	if err := run([]string{"-batch", "-n", "10", "-reps", "5"}); err == nil {
		t.Fatal("-batch with -reps should fail")
	}
	if err := run([]string{"-batch", "-n", "10", "-workers", "4"}); err == nil {
		t.Fatal("-batch with -workers should fail")
	}
}
