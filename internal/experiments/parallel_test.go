package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"facs/internal/facs"
)

// workerCounts are the pool sizes the determinism tests compare: the
// sequential baseline, a fixed small pool, and one per CPU (which on a
// single-core machine coincides with 1 — the fixed pool still
// exercises true concurrency there).
func workerCounts() []int {
	return []int{1, 4, runtime.NumCPU()}
}

// TestRunShardsCoversAllJobs: every job index runs exactly once for
// every worker count.
func TestRunShardsCoversAllJobs(t *testing.T) {
	for _, w := range []int{0, 1, 3, 16, 100} {
		const n = 57
		var counts [n]atomic.Int32
		if err := runShards(n, w, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", w, i, got)
			}
		}
	}
	if err := runShards(0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// TestRunShardsLowestError: the reported error is the lowest-indexed
// failing job for every worker count.
func TestRunShardsLowestError(t *testing.T) {
	for _, w := range workerCounts() {
		err := runShards(40, w, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3" {
			t.Fatalf("workers=%d: err = %v, want job 3", w, err)
		}
	}
}

// TestSingleCellSeedsDeterministic: identical per-seed results — full
// structs, including summaries and per-class ratios — at 1, 4 and
// NumCPU workers.
func TestSingleCellSeedsDeterministic(t *testing.T) {
	cfg := SingleCellConfig{
		Controller:  facs.Must(),
		NumRequests: 40,
	}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	var want []SingleCellResult
	for _, w := range workerCounts() {
		got, err := RunSingleCellSeeds(cfg, seeds, w)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from workers=1", w)
		}
	}
}

// TestMultiCellSeedsDeterministic: same property for the multi-cell
// scenario, whose runs build their own stateful controllers.
func TestMultiCellSeedsDeterministic(t *testing.T) {
	cfg := MultiCellConfig{
		NewController: FACSFactory(),
		NumRequests:   30,
	}
	seeds := []int64{1, 2, 3, 4}
	var want []MultiCellResult
	for _, w := range workerCounts() {
		got, err := RunMultiCellSeeds(cfg, seeds, w)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from workers=1", w)
		}
	}
}

// TestFigureWorkersInvariant: a full figure regeneration is identical
// for every worker count.
func TestFigureWorkersInvariant(t *testing.T) {
	base := FigureConfig{LoadPoints: []int{20, 50}, Seeds: []int64{1, 2}}
	var want Figure
	for i, w := range workerCounts() {
		fc := base
		fc.Workers = w
		fig, err := Figure7(fc)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = fig
			continue
		}
		if !reflect.DeepEqual(fig, want) {
			t.Fatalf("workers=%d: figure differs from workers=1", w)
		}
	}
}

// TestSeedsRequired: both seed runners reject empty seed lists.
func TestSeedsRequired(t *testing.T) {
	if _, err := RunSingleCellSeeds(SingleCellConfig{Controller: facs.Must(), NumRequests: 5}, nil, 1); err == nil {
		t.Fatal("empty seeds should error")
	}
	if _, err := RunMultiCellSeeds(MultiCellConfig{NewController: FACSFactory(), NumRequests: 5}, nil, 1); err == nil {
		t.Fatal("empty seeds should error")
	}
}

// TestSeedsErrorDeterministic: an invalid configuration surfaces the
// lowest-seed error regardless of worker count.
func TestSeedsErrorDeterministic(t *testing.T) {
	cfg := SingleCellConfig{Controller: facs.Must(), NumRequests: 10, ObserveSteps: 1}
	for _, w := range workerCounts() {
		_, err := RunSingleCellSeeds(cfg, []int64{7, 8, 9}, w)
		if err == nil {
			t.Fatalf("workers=%d: invalid config should error", w)
		}
		if want := "seed 7"; !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d: err = %v, want mention of %q", w, err, want)
		}
	}
}

// TestCompiledFigureMatchesExact is the system-level golden test: on
// every Fig. 7 scenario the lookup-table fast path produces
// byte-identical single-cell results, because every admission decision
// matches the exact engine and the simulation consumes nothing else
// from the controller.
func TestCompiledFigureMatchesExact(t *testing.T) {
	compiled, err := facs.DefaultCompiled()
	if err != nil {
		t.Fatal(err)
	}
	for _, speed := range []float64{4, 10, 30, 60} {
		for _, n := range []int{30, 60} {
			for _, seed := range []int64{1, 2} {
				cfg := SingleCellConfig{NumRequests: n, Seed: seed, SpeedKmh: Pin(speed)}
				cfg.Controller = facs.Must()
				exact, err := RunSingleCell(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Controller = compiled
				fast, err := RunSingleCell(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(exact, fast) {
					t.Fatalf("speed %v, n %d, seed %d: compiled run differs from exact:\nexact:    %+v\ncompiled: %+v",
						speed, n, seed, exact, fast)
				}
			}
		}
	}
}

// TestCompiledQueueingMatchesExact: the queueing extension consumes
// decision grades (NRNA detection), so it is the sharpest consumer of
// grade equivalence.
func TestCompiledQueueingMatchesExact(t *testing.T) {
	exactCtrl := facs.Must()
	compiledCtrl, err := facs.DefaultCompiled()
	if err != nil {
		t.Fatal(err)
	}
	base := SingleCellConfig{
		NumRequests:       60,
		QueueTextRequests: true,
		Seed:              3,
	}
	exactCfg := base
	exactCfg.Controller = exactCtrl
	exactRes, err := RunSingleCell(exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	compiledCfg := base
	compiledCfg.Controller = compiledCtrl
	compiledRes, err := RunSingleCell(compiledCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exactRes, compiledRes) {
		t.Fatalf("queueing run differs:\nexact:    %+v\ncompiled: %+v", exactRes, compiledRes)
	}
}
