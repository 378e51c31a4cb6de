package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/serve"
	"facs/internal/sim"
	"facs/internal/traffic"
)

// TestCloseJoinsWorkers pins the engine's goroutine lifecycle: New
// starts the intake and, given a second CPU, exactly one helper however
// many shards and CPUs there are; Close stops and joins both, so the
// goroutine count returns to its baseline; a second Close is a no-op,
// and every operation afterwards reports serve.ErrClosed.
func TestCloseJoinsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	net := testNetwork(t, 2)
	baseline := runtime.NumGoroutine()
	e, err := New(Config{Network: net, Shards: 4, Commit: true, NewController: guardFactory})
	if err != nil {
		t.Fatal(err)
	}
	if e.helper == nil {
		t.Fatal("no helper at GOMAXPROCS 4")
	}
	if got := runtime.NumGoroutine(); got < baseline+2 {
		t.Fatalf("%d goroutines after New, want at least %d (intake and helper)", got, baseline+2)
	}
	reqs := genRequests(t, net, 5, 200)
	if _, err := submitWave(e, reqs); err != nil {
		t.Fatal(err)
	}
	if f := e.Stats().FanOuts; f == (FanOuts{}) {
		t.Fatalf("a 200-request wave on 4 shards handed off no slice: %+v", f)
	}
	for i := 0; i < 2; i++ {
		if err := e.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	// An exited goroutine may still be counted for a moment after its
	// join (an earlier test's too, so the count may also fall below the
	// baseline); Close itself must not leave any behind.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("%d goroutines after Close, baseline %d", got, baseline)
	}

	stations := net.Stations()
	checks := []struct {
		op  string
		err error
	}{
		{"SubmitAsync", (<-e.SubmitAsync(reqs[0])).Err},
		{"SubmitWaveTo", e.SubmitWaveTo(reqs, make([]serve.Response, len(reqs)))},
		{"Release", e.Release(1, stations[0], 0)},
		{"Tick", e.Tick(0)},
		{"Do", e.Do(0, func(cac.Controller) {})},
		{"Flush", e.Flush()},
		{"HandoffCall", e.HandoffCall(Handoff{CallID: 1, From: stations[0], To: stations[1]}).Err},
	}
	for _, c := range checks {
		if !errors.Is(c.err, serve.ErrClosed) {
			t.Errorf("%s after Close: %v, want serve.ErrClosed", c.op, c.err)
		}
	}
}

// TestBackgroundStep checks the seam through which a driver hands the
// engine its own work: the helper calls the step while it asks to
// stay awake, parks once it does not, calls it again after the wake
// Background returned, and still claims posted slices; a posted slice
// wakes it when parked. A 1-shard engine has no helper and refuses the
// step.
func TestBackgroundStep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	net := testNetwork(t, 2)
	one, err := New(Config{Network: net, Shards: 1, NewController: guardFactory})
	if err != nil {
		t.Fatal(err)
	}
	if one.Background(func() bool { return true }) != nil {
		t.Error("a 1-shard engine accepted a background step")
	}
	one.Close()

	e, err := New(Config{Network: net, Shards: 2, Commit: true, NewController: guardFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var calls atomic.Int64
	var busy atomic.Bool
	busy.Store(true)
	wake := e.Background(func() bool { calls.Add(1); return busy.Load() })
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("after 10 s: %s", what)
			}
		}
	}
	waitUntil("the step never ran", func() bool { return calls.Load() > 100 })
	if _, err := submitWave(e, genRequests(t, net, 3, 200)); err != nil {
		t.Fatal(err)
	}
	if f := e.Stats().FanOuts; f.Awake+f.TakenBack == 0 || f.Inline != 0 {
		t.Errorf("slices beside a busy step: %+v", f)
	}
	busy.Store(false)
	waitUntil("the helper never parked", e.helper.parked.Load)
	// The caller waits for every posted slice, so only a post that
	// wakes the parked helper lets this wave finish (Close would too).
	e.noTakeBack.Store(true)
	before := e.Stats().FanOuts
	reqs := genRequests(t, net, 4, 20)
	done := make(chan error, 1)
	go func() { _, err := submitWave(e, reqs); done <- err }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("after 10 s: a slice posted to the parked helper did not wake it")
	}
	e.noTakeBack.Store(false)
	if f := e.Stats().FanOuts; f.Woken == before.Woken {
		t.Errorf("no woken slice: %+v, before %+v", f, before)
	}
	waitUntil("the helper never parked again", e.helper.parked.Load)
	parkedAt := calls.Load()
	busy.Store(true)
	wake()
	waitUntil("wake did not restart the step", func() bool { return calls.Load() > parkedAt+100 })
}

// TestSlicePathsRaceStress drives 2- and 4-shard engines from several
// goroutines at once, each mixing waves, blocking singles, releases,
// handoffs and ticks on its own contested stations, with each way a
// posted slice can run: claimed by the helper or taken back by the
// caller, whichever comes first ("adaptive"), always on the helper
// ("worker": the caller never takes one back, so each post wakes a
// parked helper and waits for it) and always taken back ("caller": the
// helper is stopped). Guard channel decisions read
// only their own station and each goroutine's stations are disjoint, so
// every goroutine's outcomes must equal a sequential replay on the
// 1-shard engine. Run it under -race.
func TestSlicePathsRaceStress(t *testing.T) {
	const groups = 3
	rounds := 60
	if testing.Short() {
		rounds = 25
	}
	want := make([][]stressOutcome, groups)
	{
		net := stressNetwork(t)
		e, err := New(Config{Network: net, Shards: 1, MaxBatch: 8, Commit: true, NewController: guardFactory})
		if err != nil {
			t.Fatal(err)
		}
		for g := range want {
			if want[g], err = stressGroup(e, net, g, groups, rounds); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		// The stations must be contested, or equal outcomes say little.
		var committed, total int
		for _, outs := range want {
			for _, o := range outs {
				total++
				if o.committed {
					committed++
				}
			}
		}
		if committed == 0 || committed == total {
			t.Fatalf("1-shard replay committed %d of %d requests; want a contested mix", committed, total)
		}
	}
	for _, shards := range []int{2, 4} {
		for _, path := range []string{"adaptive", "worker", "caller"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, path), func(t *testing.T) {
				net := stressNetwork(t)
				e, err := New(Config{Network: net, Shards: shards, MaxBatch: 8, Commit: true, NewController: guardFactory})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				noHelper := e.helper == nil
				switch path {
				case "worker":
					e.noTakeBack.Store(true)
				case "caller":
					e.stopHelper()
				}
				got := make([][]stressOutcome, groups)
				errs := make([]error, groups)
				var wg sync.WaitGroup
				for g := range got {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						got[g], errs[g] = stressGroup(e, net, g, groups, rounds)
					}(g)
				}
				wg.Wait()
				for g := range got {
					if errs[g] != nil {
						t.Fatalf("group %d: %v", g, errs[g])
					}
					if len(got[g]) != len(want[g]) {
						t.Fatalf("group %d: %d outcomes, 1-shard replay %d", g, len(got[g]), len(want[g]))
					}
					for i := range want[g] {
						if got[g][i] != want[g][i] {
							t.Fatalf("group %d outcome %d: %+v, 1-shard replay %+v", g, i, got[g][i], want[g][i])
						}
					}
				}
				f := e.Stats().FanOuts
				t.Logf("slice paths: %+v", f)
				switch {
				case noHelper:
					// GOMAXPROCS 1: nothing is posted.
					if f.Inline == 0 || f.Awake+f.Woken+f.TakenBack != 0 {
						t.Fatalf("no helper: %+v", f)
					}
				case path == "adaptive":
					if f == (FanOuts{}) {
						t.Fatal("no slice was posted")
					}
				case path == "worker":
					if f.Awake+f.Woken == 0 || f.Inline+f.TakenBack != 0 {
						t.Fatalf("forced helper path: %+v", f)
					}
				case path == "caller":
					if f.TakenBack == 0 || f.Awake+f.Woken+f.Inline != 0 {
						t.Fatalf("forced caller path: %+v", f)
					}
				}
			})
		}
	}
}

// stressOutcome is one decision of TestSlicePathsRaceStress.
type stressOutcome struct {
	op        byte
	id        int
	decision  cac.Decision
	committed bool
}

// stressNetwork is the contested 2-ring deployment of the stress test:
// 19 stations of 40 BU.
func stressNetwork(t *testing.T) *cell.Network {
	t.Helper()
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 2, CapacityBU: 40})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// stressGroup is goroutine g's script: it owns a contiguous run of the
// network's stations (every shard owns some of them under the
// round-robin partition) and returns its outcomes in order.
func stressGroup(e *Engine, net *cell.Network, g, groups, rounds int) ([]stressOutcome, error) {
	all := net.Stations()
	stations := all[g*len(all)/groups : (g+1)*len(all)/groups]
	rng := sim.NewStream(int64(g), "slice-stress")
	nextID := (g + 1) * 1_000_000
	request := func() cac.Request {
		nextID++
		class := traffic.DefaultMix().Sample(rng)
		return cac.Request{Call: cell.Call{ID: nextID, Class: class, BU: class.BandwidthUnits()}, Station: stations[rng.Intn(len(stations))]}
	}
	type live struct {
		id int
		bs *cell.BaseStation
	}
	var calls []live
	var outs []stressOutcome
	record := func(op byte, req cac.Request, resp serve.Response) {
		outs = append(outs, stressOutcome{op, req.Call.ID, resp.Decision, resp.Committed})
		if resp.Committed {
			calls = append(calls, live{req.Call.ID, req.Station})
		}
	}
	wave := make([]cac.Request, 20)
	out := make([]serve.Response, len(wave))
	for r := 0; r < rounds; r++ {
		for i := range wave {
			wave[i] = request()
		}
		if err := e.SubmitWaveTo(wave, out); err != nil {
			return nil, err
		}
		for i := range wave {
			record('W', wave[i], out[i])
		}
		req := request()
		resp := <-e.SubmitAsync(req)
		if resp.Err != nil && !resp.Decision.Accepted() {
			return nil, resp.Err
		}
		record('S', req, resp)
		for n := 0; n < 8 && len(calls) > 0; n++ {
			if err := e.Release(calls[0].id, calls[0].bs, float64(r)); err != nil {
				return nil, err
			}
			calls = calls[1:]
		}
		if len(calls) > 0 {
			c := calls[0]
			to := stations[rng.Intn(len(stations))]
			if to != c.bs {
				calls = calls[1:]
				res := e.HandoffCall(Handoff{CallID: c.id, From: c.bs, To: to, Now: float64(r)})
				if res.Err != nil {
					return nil, res.Err
				}
				record('H', cac.Request{Call: cell.Call{ID: c.id}, Station: to}, res.Response)
			}
		}
		if r%5 == 4 {
			if err := e.Tick(float64(r)); err != nil {
				return nil, err
			}
		}
	}
	return outs, nil
}
