package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/facs"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/sim"
	"facs/internal/traffic"
)

// testNetwork builds a fresh one-ring network with some deterministic
// pre-admitted load.
func testNetwork(t *testing.T, seed int64) *cell.Network {
	t.Helper()
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewStream(seed, "serve-preload")
	stations := net.Stations()
	id := 900000
	for _, bs := range stations {
		for bs.Used() < bs.Capacity()/2 {
			class := traffic.DefaultMix().Sample(rng)
			id++
			if err := bs.Admit(cell.Call{ID: id, Class: class, BU: class.BandwidthUnits()}); err != nil {
				break
			}
		}
	}
	return net
}

// genRequests samples n deterministic admission requests against net.
// Requests are pure functions of (seed, i) except for the station
// pointer, so two equal networks yield structurally identical streams.
func genRequests(t testing.TB, net *cell.Network, seed int64, n int) []cac.Request {
	t.Helper()
	rng := sim.NewStream(seed, "serve-reqs")
	stations := net.Stations()
	out := make([]cac.Request, n)
	for i := range out {
		bs := stations[rng.Intn(len(stations))]
		class := traffic.DefaultMix().Sample(rng)
		est := gps.Estimate{
			Pos: geo.Point{
				X: bs.Pos().X + sim.Uniform(rng, -1000, 1000),
				Y: bs.Pos().Y + sim.Uniform(rng, -1000, 1000),
			},
			HeadingDeg: sim.Uniform(rng, -180, 180),
			SpeedKmh:   sim.Uniform(rng, 0, 110),
		}
		out[i] = cac.Request{
			Call:    cell.Call{ID: i + 1, Class: class, BU: class.BandwidthUnits()},
			Station: bs,
			Obs:     gps.Observe(est, bs.Pos()),
			Est:     est,
			Handoff: i%7 == 0,
			Now:     float64(i),
		}
	}
	return out
}

// submitAll decides reqs as one wave through SubmitAllInto into a fresh
// buffer.
func submitAll(s *Service, reqs []cac.Request) ([]Response, error) {
	out := make([]Response, len(reqs))
	return out, s.SubmitAllInto(reqs, out)
}

// TestStreamedMatchesDecideAll is the determinism acceptance test: with
// Commit off, decisions streamed through the service — concurrently,
// with arbitrary timing-dependent micro-batch boundaries — must be
// byte-identical to the same requests run through cac.DecideAll
// sequentially.
func TestStreamedMatchesDecideAll(t *testing.T) {
	net := testNetwork(t, 3)
	ctrl := facs.Must()
	reqs := genRequests(t, net, 17, 400)

	want, err := cac.DecideAll(ctrl, reqs)
	if err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []Config{
		{Controller: ctrl, MaxBatch: 1},
		{Controller: ctrl, MaxBatch: 16, MaxDelay: 50 * time.Microsecond},
		{Controller: ctrl, MaxBatch: 64, MaxDelay: 2 * time.Millisecond},
		{Controller: ctrl, MaxBatch: 256, MaxDelay: -1}, // greedy
	} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]cac.Decision, len(reqs))
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(reqs); i += 8 {
					resp := <-s.SubmitAsync(reqs[i])
					if resp.Err != nil {
						t.Errorf("request %d failed: %v", i, resp.Err)
						return
					}
					got[i] = resp.Decision
				}
			}(w)
		}
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MaxBatch=%d: request %d streamed as %v, DecideAll says %v",
					cfg.MaxBatch, i, got[i], want[i])
			}
		}
		st := s.Stats()
		if st.Decided != int64(len(reqs)) {
			t.Fatalf("MaxBatch=%d: stats lost requests: %+v", cfg.MaxBatch, st)
		}
		if st.MaxBatch > cfg.MaxBatch && cfg.MaxBatch > 0 {
			t.Fatalf("MaxBatch=%d: realised batch %d exceeds cap", cfg.MaxBatch, st.MaxBatch)
		}
	}
}

// replayWave is the sequential oracle for Commit-mode wave semantics:
// chunk at maxBatch, decide each chunk via DecideAll, then commit the
// accepted calls exactly as the service does.
func replayWave(t *testing.T, ctrl cac.Controller, reqs []cac.Request, maxBatch int) []Response {
	t.Helper()
	obs, _ := ctrl.(cac.Observer)
	out := make([]Response, len(reqs))
	for lo := 0; lo < len(reqs); lo += maxBatch {
		hi := lo + maxBatch
		if hi > len(reqs) {
			hi = len(reqs)
		}
		chunk := reqs[lo:hi]
		decisions, err := cac.DecideAll(ctrl, chunk)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range decisions {
			out[lo+i] = Response{Decision: d}
			if !d.Accepted() {
				continue
			}
			call := chunk[i].Call
			call.AdmittedAt = chunk[i].Now
			call.Handoff = chunk[i].Handoff
			if err := chunk[i].Station.Admit(call); err != nil {
				out[lo+i].Err = err
				continue
			}
			out[lo+i].Committed = true
			if obs != nil {
				obs.OnAdmit(chunk[i])
			}
		}
	}
	return out
}

// TestCommitWavesMatchSequentialReplay pins Commit-mode determinism:
// waves chunk at MaxBatch boundaries only, so the streamed closed loop
// equals a sequential replay with the same chunking, and two identical
// runs agree exactly.
func TestCommitWavesMatchSequentialReplay(t *testing.T) {
	const maxBatch = 32
	run := func() ([]Response, *cell.Network) {
		net := testNetwork(t, 5)
		s, err := New(Config{Controller: cac.CompleteSharing{}, MaxBatch: maxBatch, Commit: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var all []Response
		reqs := genRequests(t, net, 23, 300)
		for lo := 0; lo < len(reqs); lo += 100 { // three waves
			resp, err := submitAll(s, reqs[lo:lo+100])
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, resp...)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return all, net
	}

	got1, net1 := run()
	got2, _ := run()

	// Oracle on a third identical network.
	net3 := testNetwork(t, 5)
	reqs := genRequests(t, net3, 23, 300)
	var want []Response
	for lo := 0; lo < len(reqs); lo += 100 {
		want = append(want, replayWave(t, cac.CompleteSharing{}, reqs[lo:lo+100], maxBatch)...)
	}

	for i := range want {
		if got1[i].Decision != want[i].Decision || got1[i].Committed != want[i].Committed {
			t.Fatalf("request %d: streamed (%v, committed=%v), oracle (%v, committed=%v)",
				i, got1[i].Decision, got1[i].Committed, want[i].Decision, want[i].Committed)
		}
		if got1[i].Decision != got2[i].Decision || got1[i].Committed != got2[i].Committed {
			t.Fatalf("request %d: two identical runs disagree", i)
		}
	}
	// The service's committed state must match the oracle's network.
	for i, bs := range net1.Stations() {
		if bs.Used() != net3.Stations()[i].Used() {
			t.Fatalf("station %d: streamed occupancy %d, oracle %d", i, bs.Used(), net3.Stations()[i].Used())
		}
	}
}

// scriptController records, in call order, every controller
// interaction; Decide accepts even IDs.
type scriptController struct {
	events []string
}

func (c *scriptController) Name() string { return "script" }

func (c *scriptController) Decide(req cac.Request) (cac.Decision, error) {
	c.events = append(c.events, fmt.Sprintf("decide:%d", req.Call.ID))
	if req.Call.ID%2 == 0 {
		return cac.Accept, nil
	}
	return cac.Reject, nil
}

func (c *scriptController) OnAdmit(req cac.Request) {
	c.events = append(c.events, fmt.Sprintf("admit:%d", req.Call.ID))
}

func (c *scriptController) OnRelease(callID int, _ *cell.BaseStation, _ float64) {
	c.events = append(c.events, fmt.Sprintf("release:%d", callID))
}

func (c *scriptController) OnTick(now float64) {
	c.events = append(c.events, fmt.Sprintf("tick:%g", now))
}

func (c *scriptController) OnStateUpdate(callID int, _ gps.Estimate, _ *cell.BaseStation) {
	c.events = append(c.events, fmt.Sprintf("update:%d", callID))
}

// TestOpsSerializedWithDecisions pins the ordering contract: ticks and
// releases issued between requests execute after
// every earlier request and before every later one.
func TestOpsSerializedWithDecisions(t *testing.T) {
	bs, err := cell.NewBaseStation(geo.Hex{}, geo.Point{}, 40)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &scriptController{}
	s, err2 := New(Config{Controller: ctrl, MaxBatch: 8, Commit: true})
	if err2 != nil {
		t.Fatal(err2)
	}

	mkReq := func(id int) cac.Request {
		return cac.Request{
			Call:    cell.Call{ID: id, Class: traffic.Voice, BU: 5},
			Station: bs,
			Obs:     gps.Observation{SpeedKmh: 10, AngleDeg: 0, DistanceKm: 1},
		}
	}

	// Sequential submission from one goroutine fixes the order.
	if r := <-s.SubmitAsync(mkReq(1)); r.Err != nil {
		t.Fatal(r.Err)
	}
	if r := <-s.SubmitAsync(mkReq(2)); r.Err != nil {
		t.Fatal(r.Err)
	}
	if err := s.Tick(100); err != nil {
		t.Fatal(err)
	}
	if r := <-s.SubmitAsync(mkReq(4)); r.Err != nil {
		t.Fatal(r.Err)
	}
	if err := s.Release(4, bs, 101); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"decide:1", "decide:2", "admit:2",
		"tick:100",
		"decide:4", "admit:4",
		"release:4",
	}
	if len(ctrl.events) != len(want) {
		t.Fatalf("events = %v, want %v", ctrl.events, want)
	}
	for i := range want {
		if ctrl.events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (full: %v)", i, ctrl.events[i], want[i], ctrl.events)
		}
	}
	if bs.NumCalls() != 1 { // call 2 admitted, call 4 admitted then released
		t.Fatalf("station carries %d calls, want 1", bs.NumCalls())
	}
	st := s.Stats()
	if st.Ticks != 1 || st.Ops != 2 || st.Committed != 2 {
		t.Fatalf("stats = %+v, want 1 tick, 2 ops, 2 committed", st)
	}
}

// TestCoreUpdateState pins the state-update op the multi-cell simulator
// drives through its Core: it reaches a mobility-tracking controller
// and counts as one op, and any other controller makes it a no-op.
func TestCoreUpdateState(t *testing.T) {
	ctrl := &scriptController{}
	c := NewCore(ctrl, true, 4)
	c.UpdateState(4, gps.Estimate{}, nil)
	if len(ctrl.events) != 1 || ctrl.events[0] != "update:4" || c.Stats().Ops != 1 {
		t.Fatalf("events %v, ops %d; want [update:4] and 1 op", ctrl.events, c.Stats().Ops)
	}
	plain := NewCore(cac.CompleteSharing{}, true, 4)
	plain.UpdateState(4, gps.Estimate{}, nil)
	if ops := plain.Stats().Ops; ops != 0 {
		t.Fatalf("an update to a controller without mobility tracking counted %d ops", ops)
	}
}

// TestMicroBatchCoalesces verifies that concurrent singles are decided
// in one intake micro-batch and that the cap is respected: with a
// MaxDelay far longer than the test, the first request's batch waits
// until MaxBatch singles have arrived, so the batch boundary does not
// depend on scheduling.
func TestMicroBatchCoalesces(t *testing.T) {
	net := testNetwork(t, 2)
	bs := net.Stations()[0]
	ctrl := &scriptController{}
	const n = 8
	s, err := New(Config{Controller: ctrl, MaxBatch: n, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	responses := make([]Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i] = <-s.SubmitAsync(cac.Request{
				Call:    cell.Call{ID: 100 + i, Class: traffic.Text, BU: 1},
				Station: bs,
				Obs:     gps.Observation{SpeedKmh: 5, AngleDeg: 0, DistanceKm: 1},
			})
		}(i)
	}
	wg.Wait()

	st := s.Stats()
	if st.Batches != 1 || st.MaxBatch != n {
		t.Fatalf("%d singles should coalesce into one batch, got %d batches, max %d (stats %+v)", n, st.Batches, st.MaxBatch, st)
	}
	for i, r := range responses {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Batch != n {
			t.Fatalf("request %d reports batch %d, want %d", i, r.Batch, n)
		}
		if r.Latency <= 0 {
			t.Fatalf("request %d reports non-positive latency %v", i, r.Latency)
		}
	}
}

// errController fails every decision.
type errController struct{}

func (errController) Name() string { return "err" }
func (errController) Decide(cac.Request) (cac.Decision, error) {
	return cac.Reject, errors.New("boom")
}

func TestDecisionErrorFansOut(t *testing.T) {
	net := testNetwork(t, 4)
	bs := net.Stations()[0]
	s, err := New(Config{Controller: errController{}, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	req := cac.Request{Call: cell.Call{ID: 1, Class: traffic.Text, BU: 1}, Station: bs}
	resp := <-s.SubmitAsync(req)
	if resp.Err == nil || resp.Decision != cac.Reject {
		t.Fatalf("expected failed reject, got %+v", resp)
	}
	waveResp, err := submitAll(s, []cac.Request{req, req})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range waveResp {
		if r.Err == nil || r.Decision != cac.Reject {
			t.Fatalf("wave response %d should carry the decision error, got %+v", i, r)
		}
	}
	if st := s.Stats(); st.Rejected != 3 || st.Decided != 3 {
		t.Fatalf("stats = %+v, want 3 failed rejects", st)
	}
}

func TestCommitOverflowWithinBatch(t *testing.T) {
	// One station with room for exactly one video call; a wave of three
	// video requests is decided against the same snapshot, so all three
	// are accepted by complete sharing but only one can commit.
	bs, err := cell.NewBaseStation(geo.Hex{}, geo.Point{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Controller: cac.CompleteSharing{}, MaxBatch: 8, Commit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reqs := make([]cac.Request, 3)
	for i := range reqs {
		reqs[i] = cac.Request{Call: cell.Call{ID: i + 1, Class: traffic.Video, BU: 10}, Station: bs}
	}
	resp, err := submitAll(s, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var committed, commitErrs int
	for _, r := range resp {
		if !r.Decision.Accepted() {
			t.Fatalf("complete sharing should accept against the empty snapshot, got %+v", r)
		}
		if r.Committed {
			committed++
		} else if r.Err != nil {
			commitErrs++
		}
	}
	if committed != 1 || commitErrs != 2 {
		t.Fatalf("want 1 committed + 2 commit errors, got %d + %d", committed, commitErrs)
	}
	if st := s.Stats(); st.CommitErrs != 2 || st.Committed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if bs.Used() != 10 {
		t.Fatalf("station used %d BU, want 10", bs.Used())
	}
}

func TestCloseSemantics(t *testing.T) {
	net := testNetwork(t, 6)
	bs := net.Stations()[0]
	s, err := New(Config{Controller: cac.CompleteSharing{}, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	req := cac.Request{Call: cell.Call{ID: 1, Class: traffic.Text, BU: 1}, Station: bs}
	if resp := <-s.SubmitAsync(req); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if resp := <-s.SubmitAsync(req); !errors.Is(resp.Err, ErrClosed) {
		t.Fatalf("submit after close: %+v, want ErrClosed", resp)
	}
	if _, err := submitAll(s, []cac.Request{req}); !errors.Is(err, ErrClosed) {
		t.Fatalf("wave after close: %v, want ErrClosed", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("flush after close: %v, want ErrClosed", err)
	}
}

func TestConcurrentMixedTrafficUnderRace(t *testing.T) {
	// Hammer the service from many goroutines with singles, waves and
	// ops simultaneously; the -race build verifies the synchronization,
	// and the drained stats must balance.
	net := testNetwork(t, 8)
	ctrl, err := cac.NewGuardChannel(8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Controller: ctrl, MaxBatch: 16, MaxDelay: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	reqs := genRequests(t, net, 99, 240)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := w; i < len(reqs); i += 6 {
				switch rng.Intn(3) {
				case 0:
					if resp := <-s.SubmitAsync(reqs[i]); resp.Err != nil {
						t.Errorf("submit: %v", resp.Err)
					}
				case 1:
					if _, err := submitAll(s, reqs[i:i+1]); err != nil {
						t.Errorf("wave: %v", err)
					}
				default:
					if resp := <-s.SubmitAsync(reqs[i]); resp.Err != nil {
						t.Errorf("submit: %v", resp.Err)
					}
					if err := s.Tick(float64(i)); err != nil {
						t.Errorf("tick: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Decided != int64(len(reqs)) || st.Accepted+st.Rejected != st.Decided {
		t.Fatalf("unbalanced stats after drain: %+v", st)
	}
}

// TestLatencyQuantiles covers the power-of-two histogram: bucket
// assignment, interpolation and the service-side accounting.
func TestLatencyQuantiles(t *testing.T) {
	for _, tc := range []struct {
		lat  time.Duration
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{time.Duration(1) << 62, 63},
	} {
		if got := LatencyBucket(tc.lat); got != tc.want {
			t.Errorf("LatencyBucket(%d) = %d, want %d", tc.lat, got, tc.want)
		}
	}

	// A synthetic histogram: 90 requests in [256, 512) ns, 10 in
	// [64Ki, 128Ki) ns. The median must land in the low bucket, the
	// p99 in the high one, and quantiles must be monotone.
	var st Stats
	st.LatencyHist[9] = 90
	st.LatencyHist[17] = 10
	st.MaxLatency = 100 * time.Microsecond
	if p50 := st.P50Latency(); p50 < 256 || p50 >= 512 {
		t.Fatalf("p50 = %v, want within [256ns, 512ns)", p50)
	}
	if p99 := st.P99Latency(); p99 < 1<<16 || p99 >= 1<<17 {
		t.Fatalf("p99 = %v, want within [64Ki ns, 128Ki ns)", p99)
	}
	if st.P50Latency() > st.LatencyQuantile(0.9) || st.LatencyQuantile(0.9) > st.P99Latency() {
		t.Fatalf("quantiles not monotone: p50 %v p90 %v p99 %v",
			st.P50Latency(), st.LatencyQuantile(0.9), st.P99Latency())
	}
	if (Stats{}).P99Latency() != 0 {
		t.Fatalf("empty histogram should quantile to 0")
	}

	// End to end: a drained service's histogram accounts every decided
	// request, and its quantiles are bounded by the max.
	net := testNetwork(t, 5)
	ctrl, err := cac.NewGuardChannel(8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Controller: ctrl, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	reqs := genRequests(t, net, 31, 200)
	if _, err := submitAll(s, reqs[:120]); err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs[120:] {
		if resp := <-s.SubmitAsync(r); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := s.Stats()
	var total int64
	for _, n := range got.LatencyHist {
		total += n
	}
	if total != got.Decided {
		t.Fatalf("histogram holds %d samples, want %d decided", total, got.Decided)
	}
	if got.P50Latency() > got.P99Latency() || got.P99Latency() > 2*got.MaxLatency {
		t.Fatalf("implausible quantiles: p50 %v p99 %v max %v",
			got.P50Latency(), got.P99Latency(), got.MaxLatency)
	}
	if !strings.Contains(got.String(), "p50") || !strings.Contains(got.String(), "p99") {
		t.Fatalf("summary misses percentiles: %s", got)
	}
}

// TestSubmitAllIntoReusesBuffer pins the buffer-reuse wave path: a
// response buffer reused across waves receives exactly the responses a
// fresh buffer does on an identical service, slots beyond len(reqs)
// stay untouched, and short buffers are rejected.
func TestSubmitAllIntoReusesBuffer(t *testing.T) {
	guard, err := cac.NewGuardChannel(4)
	if err != nil {
		t.Fatal(err)
	}
	netA := testNetwork(t, 5)
	netB := testNetwork(t, 5)
	a, err := New(Config{Controller: guard, MaxBatch: 16, Commit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Controller: guard, MaxBatch: 16, Commit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	buf := make([]Response, 100+8)
	sentinel := Response{Batch: -99}
	buf[100] = sentinel
	for wave := 0; wave < 3; wave++ {
		reqsA := genRequests(t, netA, int64(77+wave), 100)
		reqsB := genRequests(t, netB, int64(77+wave), 100)
		want, err := submitAll(a, reqsA)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SubmitAllInto(reqsB, buf); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i].Decision != buf[i].Decision || want[i].Committed != buf[i].Committed ||
				want[i].Batch != buf[i].Batch || fmt.Sprint(want[i].Err) != fmt.Sprint(buf[i].Err) {
				t.Fatalf("wave %d response %d: fresh buffer %+v, reused buffer %+v", wave, i, want[i], buf[i])
			}
		}
		if buf[100] != sentinel {
			t.Fatal("SubmitAllInto wrote past len(reqs)")
		}
	}
	reqs := genRequests(t, netB, 80, 10)
	if err := b.SubmitAllInto(reqs, make([]Response, len(reqs)-1)); err == nil {
		t.Fatal("short response buffer should error")
	}
	if err := b.SubmitAllInto(nil, nil); err != nil {
		t.Fatalf("empty wave: %v", err)
	}
}

// TestServiceWaveZeroAllocs gates the closed-loop Service path: in
// Commit mode a steady wave — SubmitAllInto, a Release of every call it
// committed, and a Tick — allocates nothing.
func TestServiceWaveZeroAllocs(t *testing.T) {
	guard, err := cac.NewGuardChannel(8)
	if err != nil {
		t.Fatal(err)
	}
	net := testNetwork(t, 5)
	s, err := New(Config{Controller: guard, MaxBatch: 16, Commit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reqs := genRequests(t, net, 41, 48)
	out := make([]Response, len(reqs))
	committed := 0
	wave := func() {
		if err := s.SubmitAllInto(reqs, out); err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			if !out[i].Committed {
				continue
			}
			committed++
			if err := s.Release(reqs[i].Call.ID, reqs[i].Station, reqs[i].Now); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
	wave()
	if committed == 0 {
		t.Fatal("the wave committed nothing")
	}
	if allocs := testing.AllocsPerRun(50, wave); allocs != 0 {
		t.Fatalf("a Service wave allocates %.1f times, want 0", allocs)
	}
	if st := s.Stats(); st.OpErrs != 0 {
		t.Fatalf("%d releases failed", st.OpErrs)
	}
}
