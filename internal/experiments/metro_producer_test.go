package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"facs/internal/cac"
	"facs/internal/shard"
)

// waitProducerAhead blocks until r's drawer has filled its whole ring
// or drawn the run's last arrival, so the call stream sits past the
// wave the loop has reached. When the loop is the drawer (GOMAXPROCS 1)
// it draws ahead itself.
func waitProducerAhead(t *testing.T, r *metroRun) {
	t.Helper()
	var total int64
	for _, n := range r.workload.arrivals {
		total += int64((n + r.cfg.MaxBatch - 1) / r.cfg.MaxBatch)
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.drawn.Load()-r.used.Load() < int64(len(r.chunks)) && r.drawn.Load() < total {
		if r.wake == nil {
			r.draw()
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("drawer holds %d of %d chunks after 10 s", r.drawn.Load()-r.used.Load(), len(r.chunks))
		}
		time.Sleep(time.Millisecond)
	}
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the run", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMetropolisSnapshotAheadOfProducer cuts the half-way snapshot only
// once the arrival producer has drawn past the wave boundary (its ring
// full), so the call stream's live position is ahead of the loop's. The
// snapshot must record the boundary's position: the resumed run
// reproduces the uninterrupted outcome.
func TestMetropolisSnapshotAheadOfProducer(t *testing.T) {
	guard := metroTestConfig(shardGuardFactory)
	sharded := metroTestConfig(shardLedgerFactory)
	sharded.Mode, sharded.Shards = MetroSharded, 2
	single := metroTestConfig(shardGuardFactory)
	single.MaxBatch = 1
	for _, tc := range []struct {
		name string
		cfg  MetropolisConfig
	}{{"guard/batch", guard}, {"guard/single", single}, {"scc/sharded=2", sharded}} {
		t.Run(tc.name, func(t *testing.T) {
			full, err := RunMetropolis(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := newMetroRun(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r1.close()
			half := r1.cfg.Waves / 2
			for r1.wave < half {
				if err := r1.runWave(); err != nil {
					t.Fatal(err)
				}
			}
			waitProducerAhead(t, r1)
			if r1.drawn.Load() == r1.used.Load() {
				t.Fatal("the drawer drew nothing past the half-way wave")
			}
			var buf bytes.Buffer
			if err := r1.snapshotTo(&buf); err != nil {
				t.Fatal(err)
			}
			if err := r1.close(); err != nil {
				t.Fatal(err)
			}
			r2, err := newMetroRun(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.close()
			if err := r2.restoreFrom(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
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
			sameMetroOutcome(t, tc.name, full, res)
		})
	}
}

// tripController decides through inner and calls trip when the n-th
// decision is asked for; a trip error fails that decision.
type tripController struct {
	inner cac.Controller
	n     *atomic.Int64
	trip  func() error
}

func (c tripController) Name() string { return c.inner.Name() }

func (c tripController) Decide(req cac.Request) (cac.Decision, error) {
	if c.n.Add(-1) == 0 {
		if err := c.trip(); err != nil {
			return cac.Reject, err
		}
	}
	return c.inner.Decide(req)
}

// tripFactory wraps shardGuardFactory's controllers, all shards sharing
// one countdown to the n-th decision.
func tripFactory(n int64, trip func() error) func(shard.View) (cac.Controller, error) {
	left := new(atomic.Int64)
	left.Store(n)
	return func(v shard.View) (cac.Controller, error) {
		inner, err := shardGuardFactory(v)
		return tripController{inner: inner, n: left, trip: trip}, err
	}
}

// TestMetropolisStopMidRunResumes fires Stop from inside a wave, while
// the producer is drawing ahead. The run finishes that wave, writes its
// final snapshot and leaves no goroutine behind; the restored run
// completes the day with the uninterrupted outcome.
func TestMetropolisStopMidRunResumes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*MetropolisConfig)
	}{
		{"batch", func(c *MetropolisConfig) {}},
		{"sharded=2", func(c *MetropolisConfig) { c.Mode, c.Shards = MetroSharded, 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := metroTestConfig(tripFactory(0, nil))
			tc.mutate(&cfg)
			full, err := RunMetropolis(cfg)
			if err != nil {
				t.Fatal(err)
			}

			base := runtime.NumGoroutine()
			dir := t.TempDir()
			stop := make(chan struct{})
			stopped := cfg
			stopped.NewController = tripFactory(int64(full.Decisions()/3), func() error { close(stop); return nil })
			stopped.SnapshotDir, stopped.Stop = dir, stop
			res, err := RunMetropolis(stopped)
			if err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)
			if !res.Stopped || res.Waves == 0 || res.Waves >= cfg.Waves {
				t.Fatalf("Stopped %v after %d of %d waves, want a stop mid-run", res.Stopped, res.Waves, cfg.Waves)
			}
			if res.Snapshots != 1 {
				t.Fatalf("Snapshots = %d, want 1", res.Snapshots)
			}

			resumed := cfg
			resumed.Restore = filepath.Join(dir, MetroSnapshotFile)
			got, err := RunMetropolis(resumed)
			if err != nil {
				t.Fatal(err)
			}
			sameMetroOutcome(t, tc.name, full, got)
		})
	}
}

// TestMetropolisControllerErrorStopsProducer fails one decision in the
// middle of a wave. RunMetropolis must return that error and stop the
// producer and the engine: the goroutine count comes back to where it
// was before the run.
func TestMetropolisControllerErrorStopsProducer(t *testing.T) {
	errTrip := errors.New("tripped")
	for _, tc := range []struct {
		name   string
		mutate func(*MetropolisConfig)
	}{
		{"batch", func(c *MetropolisConfig) {}},
		{"single", func(c *MetropolisConfig) { c.MaxBatch = 1 }},
		{"sharded=2", func(c *MetropolisConfig) { c.Mode, c.Shards = MetroSharded, 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := metroTestConfig(tripFactory(500, func() error { return errTrip }))
			tc.mutate(&cfg)
			if _, err := RunMetropolis(cfg); !errors.Is(err, errTrip) {
				t.Fatalf("err = %v, want the controller's error", err)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestMetropolisHelperLifecycle pins the sharded run's goroutines: the
// engine's helper draws the arrivals, so a run adds only the intake and,
// given a second CPU, the one helper, and both are gone once
// RunMetropolis returns, whether the day ran out, Stop fired, a
// controller failed or the run resumed from a snapshot. A restore
// comes before any drawing. With GOMAXPROCS 1 the loop runs every slice
// and draws every arrival itself, deciding exactly as two CPUs do.
func TestMetropolisHelperLifecycle(t *testing.T) {
	errTrip := errors.New("tripped")
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sharded := func(cfg MetropolisConfig) MetropolisConfig {
				cfg.Mode, cfg.Shards = MetroSharded, shards
				return cfg
			}
			base := runtime.NumGoroutine()
			r, err := newMetroRun(sharded(districtSCCConfig()))
			if err != nil {
				t.Fatal(err)
			}
			for r.wave < r.cfg.Waves/2 {
				if err := r.runWave(); err != nil {
					t.Fatal(err)
				}
			}
			helpers := min(runtime.GOMAXPROCS(0)-1, 1)
			if got := runtime.NumGoroutine(); got > base+1+helpers {
				t.Errorf("%d goroutines mid-run, want at most %d: intake and %d helper", got, base+1+helpers, helpers)
			}
			if r.room != nil {
				t.Error("a producer goroutine draws beside the engine's helper")
			}
			var buf bytes.Buffer
			if err := r.snapshotTo(&buf); err != nil {
				t.Fatal(err)
			}
			if err := r.close(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)

			full, err := RunMetropolis(sharded(districtSCCConfig()))
			if err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)

			resumed, err := newMetroRun(sharded(districtSCCConfig()))
			if err != nil {
				t.Fatal(err)
			}
			if resumed.started || resumed.callSrc.Draws() != 0 {
				t.Fatal("a fresh run drew arrivals before its restore")
			}
			if err := resumed.restoreFrom(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			for resumed.wave < resumed.cfg.Waves {
				if err := resumed.runWave(); err != nil {
					t.Fatal(err)
				}
			}
			got, err := resumed.finish()
			if err != nil {
				t.Fatal(err)
			}
			sameMetroOutcome(t, "restored", full, got)
			waitGoroutines(t, base)

			stop := make(chan struct{})
			stopped := sharded(metroTestConfig(tripFactory(int64(full.Decisions()/30), func() error { close(stop); return nil })))
			stopped.Stop = stop
			if res, err := RunMetropolis(stopped); err != nil || !res.Stopped {
				t.Fatalf("stop mid-run: Stopped %v, err %v", res.Stopped, err)
			}
			waitGoroutines(t, base)

			failing := sharded(metroTestConfig(tripFactory(500, func() error { return errTrip })))
			if _, err := RunMetropolis(failing); !errors.Is(err, errTrip) {
				t.Fatalf("err = %v, want the controller's error", err)
			}
			waitGoroutines(t, base)
		})
	}
	t.Run("gomaxprocs=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		base := runtime.NumGoroutine()
		cfg := districtSCCConfig()
		cfg.Mode, cfg.Shards = MetroSharded, 2
		res, err := RunMetropolis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.DecisionHash != 0x66f6e7200590c510 {
			t.Errorf("hash %#x, want the 2-shard pin %#x", res.DecisionHash, uint64(0x66f6e7200590c510))
		}
		if f := res.FanOuts; f.Inline == 0 || f.Awake+f.Woken+f.TakenBack != 0 {
			t.Errorf("FanOuts %+v, want every slice inline", f)
		}
		waitGoroutines(t, base)
	})
}
