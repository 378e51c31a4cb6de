package experiments

import (
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"facs/internal/cac"
	"facs/internal/shard"
)

// waitProducerAhead blocks until r's arrival producer has filled its
// whole ring or drawn the run's last arrival, so the call stream sits
// past the wave the loop has reached.
func waitProducerAhead(t *testing.T, r *metroRun) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(r.ready) < cap(r.ready) {
		select {
		case <-r.done:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("producer holds %d of %d chunks after 10 s", len(r.ready), cap(r.ready))
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
			if len(r1.ready) == 0 {
				t.Fatal("producer drew nothing past the half-way wave")
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
