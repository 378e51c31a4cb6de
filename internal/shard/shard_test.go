package shard

import (
	"reflect"
	"strings"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/facs"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/serve"
	"facs/internal/sim"
	"facs/internal/traffic"
)

// testNetwork builds a fresh multi-ring network.
func testNetwork(t testing.TB, rings int) *cell.Network {
	t.Helper()
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: rings})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// genRequests samples n deterministic admission requests against net.
// Requests are pure functions of (seed, i) except for the station
// pointer, so two equal networks yield structurally identical streams.
func genRequests(t testing.TB, net *cell.Network, seed int64, n int) []cac.Request {
	t.Helper()
	rng := sim.NewStream(seed, "shard-reqs")
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
			Handoff: i%9 == 0,
			Now:     float64(i),
		}
	}
	return out
}

// sharedFACS returns a factory handing every shard the same exact
// System (immutable, concurrency-safe, cell-local).
func sharedFACS(t testing.TB) func(View) (cac.Controller, error) {
	t.Helper()
	sys := facs.Must()
	return func(View) (cac.Controller, error) { return sys, nil }
}

func guardFactory(View) (cac.Controller, error) { return cac.NewGuardChannel(8) }

// submitWave decides reqs as one wave through SubmitWaveTo into a fresh
// buffer.
func submitWave(e *Engine, reqs []cac.Request) ([]serve.Response, error) {
	out := make([]serve.Response, len(reqs))
	return out, e.SubmitWaveTo(reqs, out)
}

// shardOf returns the shard owning cell h at the current epoch, or
// false for a hex outside the deployment.
func shardOf(e *Engine, h geo.Hex) (int, bool) {
	ci, ok := e.cells.index(h)
	if !ok {
		return 0, false
	}
	return int(e.own.Load().owner[ci]), true
}

// forceRebalance runs one rebalance epoch now, as the Tick barrier of an
// engine with RebalanceEveryTicks does: plan, migrate, publish, then a
// full exchange round. Like Tick it assumes quiesced submissions.
func forceRebalance(e *Engine) error {
	if err := e.rebalance(); err != nil {
		return err
	}
	e.exchangeDemand()
	return nil
}

func TestPartitionDeterministicAndComplete(t *testing.T) {
	net := testNetwork(t, 2) // 19 cells
	for _, shards := range []int{1, 2, 4, 19, 64} {
		e, err := New(Config{Network: net, Shards: shards, NewController: guardFactory})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		want := shards
		if want > net.NumCells() {
			want = net.NumCells()
		}
		if e.Shards() != want {
			t.Fatalf("shards=%d: engine has %d loops, want %d", shards, e.Shards(), want)
		}
		// Every station owned exactly once, round-robin over (Q, R) order.
		counts := make([]int, e.Shards())
		for i, bs := range net.Stations() {
			s, ok := shardOf(e, bs.Hex())
			if !ok {
				t.Fatalf("station %v unrouted", bs.Hex())
			}
			if s != i%e.Shards() {
				t.Fatalf("station %d routed to shard %d, want %d", i, s, i%e.Shards())
			}
			counts[s]++
		}
		total := 0
		for s, c := range counts {
			if c != e.own.Load().views[s].NumCells() {
				t.Fatalf("shard %d view has %d cells, router says %d", s, e.own.Load().views[s].NumCells(), c)
			}
			total += c
		}
		if total != net.NumCells() {
			t.Fatalf("partition covers %d cells, want %d", total, net.NumCells())
		}
		if _, ok := shardOf(e, geo.Hex{Q: 99, R: 99}); ok {
			t.Fatal("foreign hex should not route")
		}
		if !e.Stats().CellLocal {
			t.Fatal("guard-channel shards should report cell-local")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	net := testNetwork(t, 1)
	if _, err := New(Config{NewController: guardFactory}); err == nil {
		t.Fatal("missing network should fail")
	}
	if _, err := New(Config{Network: net}); err == nil {
		t.Fatal("missing factory should fail")
	}
	if _, err := New(Config{Network: net, Shards: -1, NewController: guardFactory}); err == nil {
		t.Fatal("negative shards should fail")
	}
	if _, err := New(Config{Network: net, NewController: guardFactory, MaxBatch: -2}); err == nil {
		t.Fatal("negative MaxBatch should fail")
	}
	if _, err := New(Config{Network: net, NewController: func(View) (cac.Controller, error) {
		return nil, cell.ErrUnknownCall
	}}); err == nil {
		t.Fatal("factory failure should fail construction")
	}
}

// TestWaveMatchesDecideAll pins the commit-off contract: a sharded wave
// equals one sequential DecideAll for every shard count.
func TestWaveMatchesDecideAll(t *testing.T) {
	net := testNetwork(t, 2)
	sys := facs.Must()
	reqs := genRequests(t, net, 7, 300)
	want, err := cac.DecideAll(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		e, err := New(Config{
			Network: net, Shards: shards, MaxBatch: 32,
			NewController: func(View) (cac.Controller, error) { return sys, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := submitWave(e, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Err != nil {
				t.Fatalf("shards=%d: request %d failed: %v", shards, i, got[i].Err)
			}
			if got[i].Decision != want[i] {
				t.Fatalf("shards=%d: decision %d is %v, want %v", shards, i, got[i].Decision, want[i])
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// outcome is the committed-mode per-request result under comparison.
type outcome struct {
	d         cac.Decision
	committed bool
}

// replayWaves is the sequential oracle for committed waves: the same
// global MaxBatch chunking the engine performs, decided inline against
// one controller and committed in request order.
func replayWaves(t *testing.T, ctrl cac.Controller, waves [][]cac.Request, maxBatch int) []outcome {
	t.Helper()
	observer, _ := ctrl.(cac.Observer)
	var out []outcome
	for _, wave := range waves {
		for lo := 0; lo < len(wave); lo += maxBatch {
			hi := min(lo+maxBatch, len(wave))
			chunk := wave[lo:hi]
			decisions, err := cac.DecideAll(ctrl, chunk)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range decisions {
				o := outcome{d: d}
				if d.Accepted() {
					call := chunk[i].Call
					call.AdmittedAt = chunk[i].Now
					call.Handoff = chunk[i].Handoff
					if err := chunk[i].Station.Admit(call); err == nil {
						o.committed = true
						if observer != nil {
							observer.OnAdmit(chunk[i])
						}
					}
				}
				out = append(out, o)
			}
		}
	}
	return out
}

// TestCommittedWavesShardCountInvariant is the heart of the
// determinism contract: with Commit on, the full per-request outcome
// stream (decision AND committed flag) is byte-identical for shard
// counts 1/2/4/8 and equals the inline sequential replay.
func TestCommittedWavesShardCountInvariant(t *testing.T) {
	const rings, seed, total, waveLen, maxBatch = 2, 21, 600, 96, 32

	// The oracle runs on its own network instance (station state is
	// consumed by commits).
	oracleNet := testNetwork(t, rings)
	oracleReqs := genRequests(t, oracleNet, seed, total)
	var waves [][]cac.Request
	for lo := 0; lo < total; lo += waveLen {
		waves = append(waves, oracleReqs[lo:min(lo+waveLen, total)])
	}
	want := replayWaves(t, facs.Must(), waves, maxBatch)

	for _, shards := range []int{1, 2, 4, 8} {
		net := testNetwork(t, rings)
		reqs := genRequests(t, net, seed, total)
		e, err := New(Config{
			Network: net, Shards: shards, MaxBatch: maxBatch, Commit: true,
			NewController: sharedFACS(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []outcome
		for lo := 0; lo < total; lo += waveLen {
			resps, err := submitWave(e, reqs[lo:min(lo+waveLen, total)])
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range resps {
				got = append(got, outcome{d: r.Decision, committed: r.Committed})
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d outcomes, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: outcome %d is %+v, want %+v", shards, i, got[i], want[i])
			}
		}
		// Station state must agree with the oracle network cell by cell.
		oracleStations := oracleNet.Stations()
		for i, bs := range net.Stations() {
			if bs.Used() != oracleStations[i].Used() {
				t.Fatalf("shards=%d: station %v used %d, oracle %d", shards, bs.Hex(), bs.Used(), oracleStations[i].Used())
			}
		}
	}
}

// TestHandoffProtocol covers the two-phase handoff on one engine:
// in-shard and cross-shard transfers, unknown calls, and drops into a
// full target cell.
func TestHandoffProtocol(t *testing.T) {
	net := testNetwork(t, 1) // 7 cells
	e, err := New(Config{Network: net, Shards: 4, Commit: true, NewController: guardFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stations := net.Stations()

	// Admit one voice call in cell 0 through the engine.
	reqs := genRequests(t, net, 5, 1)
	reqs[0].Station = stations[0]
	reqs[0].Call.Class = traffic.Voice
	reqs[0].Call.BU = traffic.Voice.BandwidthUnits()
	resps, err := submitWave(e, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !resps[0].Committed {
		t.Fatalf("seed call not committed: %+v", resps[0])
	}
	id := reqs[0].Call.ID

	// Move it to a station owned by a different shard.
	var target *cell.BaseStation
	src, _ := shardOf(e, stations[0].Hex())
	for _, bs := range stations[1:] {
		if s, _ := shardOf(e, bs.Hex()); s != src {
			target = bs
			break
		}
	}
	if target == nil {
		t.Fatal("no cross-shard target in a 7-cell 4-shard engine")
	}
	res := e.HandoffCall(Handoff{
		CallID: id, From: stations[0], To: target,
		Est: reqs[0].Est, Now: 10,
	})
	if res.Err != nil || !res.Response.Committed || !res.CrossShard {
		t.Fatalf("cross-shard handoff failed: %+v", res)
	}
	if _, ok := stations[0].Call(id); ok {
		t.Fatal("source still carries the call after handoff")
	}
	c, ok := target.Call(id)
	if !ok || !c.Handoff || c.AdmittedAt != 10 {
		t.Fatalf("target does not carry the handed-off call: %+v ok=%v", c, ok)
	}

	// Unknown call: protocol error, no state change.
	if res := e.HandoffCall(Handoff{CallID: 999, From: stations[0], To: target, Now: 11}); res.Err == nil {
		t.Fatal("handoff of unknown call should error")
	}

	// A full target drops the handoff; the source has already released.
	full := stations[3]
	for i := 0; full.Free() >= traffic.Voice.BandwidthUnits(); i++ {
		if err := full.Admit(cell.Call{ID: 5000 + i, Class: traffic.Video, BU: traffic.Video.BandwidthUnits()}); err != nil {
			break
		}
	}
	res = e.HandoffCall(Handoff{CallID: id, From: target, To: full, Est: reqs[0].Est, Now: 12})
	if res.Err != nil {
		t.Fatalf("drop should not be a protocol error: %v", res.Err)
	}
	if !res.Dropped() {
		t.Fatalf("handoff into a full cell should drop: %+v", res)
	}
	if _, ok := target.Call(id); ok {
		t.Fatal("source must release even when the target drops")
	}

	st := e.Stats()
	if st.Handoffs != 2 || st.Drops != 1 || st.Errs != 1 || st.CrossShard < 1 {
		t.Fatalf("handoff counters: %+v", st)
	}
	if !strings.Contains(st.String(), "handoffs 2") {
		t.Fatalf("stats summary: %s", st)
	}
}

// TestHandoffToSameStationRefused pins that a handoff whose target is
// the call's own station is a protocol error that leaves the call
// committed where it is, instead of releasing it and re-deciding it
// there (which could drop a call that never left its cell).
func TestHandoffToSameStationRefused(t *testing.T) {
	net := testNetwork(t, 1)
	e, err := New(Config{Network: net, Shards: 2, Commit: true, NewController: guardFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bs := net.Stations()[0]
	req := genRequests(t, net, 1, 1)[0]
	req.Station = bs
	req.Call.Class, req.Call.BU = traffic.Voice, traffic.Voice.BandwidthUnits()
	if resp := <-e.SubmitAsync(req); !resp.Committed {
		t.Fatalf("seed call not committed: %+v", resp)
	}
	res := e.HandoffCall(Handoff{CallID: req.Call.ID, From: bs, To: bs, Est: req.Est, Now: 5})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "targets the station it is on") {
		t.Fatalf("same-station handoff: err %v, response %+v", res.Err, res.Response)
	}
	if _, ok := bs.Call(req.Call.ID); !ok {
		t.Fatal("a refused same-station handoff released the call")
	}
	if st := e.Stats(); st.Errs != 1 || st.Handoffs != 0 || st.Drops != 0 {
		t.Fatalf("handoff counters: errs %d, handoffs %d, drops %d", st.Errs, st.Handoffs, st.Drops)
	}
}

func TestHandoffRequiresCommit(t *testing.T) {
	net := testNetwork(t, 1)
	e, err := New(Config{Network: net, Shards: 2, NewController: guardFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stations := net.Stations()
	if res := e.HandoffCall(Handoff{CallID: 1, From: stations[0], To: stations[1]}); res.Err == nil {
		t.Fatal("handoff without Commit should error")
	}
}

// fakeExchanger records the exchange protocol: exports hand out one
// fresh row per call, applies log (source, generation) pairs.
type fakeExchanger struct {
	cac.GuardChannel
	index   int
	gen     uint64
	applied []appliedDelta
}

type appliedDelta struct {
	src  int
	gen  uint64
	rows int
}

func (f *fakeExchanger) ExportDemand() cac.DemandDelta {
	f.gen++
	return cac.DemandDelta{Gen: f.gen, Rows: []cac.DemandRow{{Cell: geo.Hex{Q: f.index}, K: 0, Amount: 1}}}
}

func (f *fakeExchanger) ApplyGhost(src int, d cac.DemandDelta) {
	f.applied = append(f.applied, appliedDelta{src: src, gen: d.Gen, rows: len(d.Rows)})
}

// TestTickBarrierGhostExchange pins the engine side of the exchange:
// every tick, each shard exports exactly once and receives every other
// shard's delta in ascending source order, with the engine counters
// tracking rounds and fanned-out rows.
func TestTickBarrierGhostExchange(t *testing.T) {
	net := testNetwork(t, 2)
	const shards = 4
	exchangers := map[int]*fakeExchanger{}
	e, err := New(Config{Network: net, Shards: shards, NewController: func(v View) (cac.Controller, error) {
		f := &fakeExchanger{index: v.Index()}
		exchangers[v.Index()] = f
		return f, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.exchangers == nil {
		t.Fatal("distinct exchanger instances should enable the exchange")
	}
	const ticks = 3
	for i := 0; i < ticks; i++ {
		if err := e.Tick(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for s, f := range exchangers {
		var gen uint64
		var applied []appliedDelta
		if err := e.Do(s, func(cac.Controller) { gen = f.gen; applied = append(applied, f.applied...) }); err != nil {
			t.Fatal(err)
		}
		if gen != ticks {
			t.Fatalf("shard %d exported %d times, want %d", s, gen, ticks)
		}
		if len(applied) != ticks*(shards-1) {
			t.Fatalf("shard %d received %d deltas, want %d", s, len(applied), ticks*(shards-1))
		}
		for i, a := range applied {
			round, pos := i/(shards-1), i%(shards-1)
			wantSrc := pos
			if wantSrc >= s {
				wantSrc++ // own delta skipped
			}
			if a.src != wantSrc || a.gen != uint64(round+1) || a.rows != 1 {
				t.Fatalf("shard %d delivery %d is %+v, want src %d gen %d rows 1", s, i, a, wantSrc, round+1)
			}
		}
	}
	st := e.Stats()
	if st.Exchanges != ticks || st.GhostRows != int64(ticks*shards*(shards-1)) {
		t.Fatalf("exchange counters: %+v", st)
	}
	if !strings.Contains(st.String(), "ghost exchanges 3") {
		t.Fatalf("stats summary: %s", st)
	}
}

// TestExchangeRequiresDistinctInstances covers how the exchange stays
// off for demand exchangers: a shared controller instance would ingest
// its own exports.
func TestExchangeRequiresDistinctInstances(t *testing.T) {
	net := testNetwork(t, 1)
	shared := &fakeExchanger{}
	e, err := New(Config{Network: net, Shards: 3, NewController: func(View) (cac.Controller, error) {
		return shared, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.exchangers != nil {
		t.Fatal("a shared exchanger instance must not enable the exchange")
	}
	if err := e.Tick(1); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Exchanges != 0 || !strings.Contains(st.String(), "handoffs 0") || strings.Contains(st.String(), "ghost") {
		t.Fatalf("exchange ran on a shared instance: %+v (%s)", st, st)
	}
}

// tickRecorder counts tick deliveries (cell-local on purpose: it keeps
// no admission state).
type tickRecorder struct {
	cac.GuardChannel
	ticks []float64
}

func (r *tickRecorder) OnTick(now float64) { r.ticks = append(r.ticks, now) }

func TestTickBarrierReachesEveryShard(t *testing.T) {
	net := testNetwork(t, 1)
	recorders := map[int]*tickRecorder{}
	e, err := New(Config{Network: net, Shards: 3, NewController: func(v View) (cac.Controller, error) {
		r := &tickRecorder{}
		recorders[v.Index()] = r
		return r, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if len(recorders) != 3 {
		t.Fatalf("factory ran %d times, want 3", len(recorders))
	}
	if err := e.Tick(42); err != nil {
		t.Fatal(err)
	}
	// Tick is a barrier: by the time it returns, every shard applied it.
	for s, r := range recorders {
		var got []float64
		if err := e.Do(s, func(cac.Controller) { got = append(got, r.ticks...) }); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != 42 {
			t.Fatalf("shard %d saw ticks %v, want [42]", s, got)
		}
	}
	if st := e.Stats(); st.Total.Ticks != 3 {
		t.Fatalf("aggregated ticks = %d, want 3", st.Total.Ticks)
	}
}

func TestStatsAggregation(t *testing.T) {
	net := testNetwork(t, 2)
	e, err := New(Config{Network: net, Shards: 4, MaxBatch: 16, Commit: true, NewController: guardFactory})
	if err != nil {
		t.Fatal(err)
	}
	reqs := genRequests(t, net, 13, 200)
	if _, err := submitWave(e, reqs); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Shards != 4 || len(st.PerShard) != 4 || st.Waves != 1 {
		t.Fatalf("shape: %+v", st)
	}
	var decided, histTotal int64
	for _, s := range st.PerShard {
		decided += s.Decided
	}
	for _, n := range st.Total.LatencyHist {
		histTotal += n
	}
	if st.Total.Decided != int64(len(reqs)) || decided != st.Total.Decided {
		t.Fatalf("decided: total %d, per-shard sum %d, want %d", st.Total.Decided, decided, len(reqs))
	}
	if histTotal != st.Total.Decided {
		t.Fatalf("merged histogram holds %d samples, want %d", histTotal, st.Total.Decided)
	}
	if st.Total.P50Latency() > st.Total.P99Latency() {
		t.Fatalf("merged percentiles not monotone: %+v", st.Total)
	}
	if st.Total.Accepted+st.Total.Rejected != st.Total.Decided {
		t.Fatalf("unbalanced outcomes: %+v", st.Total)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIsIdempotentAndRejectsLateTraffic(t *testing.T) {
	net := testNetwork(t, 1)
	e, err := New(Config{Network: net, Shards: 2, Commit: true, NewController: guardFactory})
	if err != nil {
		t.Fatal(err)
	}
	reqs := genRequests(t, net, 3, 4)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if resp := <-e.SubmitAsync(reqs[0]); resp.Err == nil {
		t.Fatal("submit after close should fail")
	}
	if _, err := submitWave(e, reqs); err == nil {
		t.Fatal("wave after close should fail")
	}
	stations := net.Stations()
	if res := e.HandoffCall(Handoff{CallID: 1, From: stations[0], To: stations[1]}); res.Err == nil {
		t.Fatal("handoff after close should fail")
	}
}

// TestUnroutableRequests covers the router error paths.
func TestUnroutableRequests(t *testing.T) {
	net := testNetwork(t, 1)
	foreignNet := testNetwork(t, 2)
	foreign := foreignNet.Stations()[len(foreignNet.Stations())-1] // outside the 1-ring deployment
	e, err := New(Config{Network: net, Shards: 2, NewController: guardFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if resp := <-e.SubmitAsync(cac.Request{Call: cell.Call{ID: 1, Class: traffic.Voice, BU: 5}}); resp.Err == nil {
		t.Fatal("stationless request should fail")
	}
	req := cac.Request{Call: cell.Call{ID: 2, Class: traffic.Voice, BU: 5}, Station: foreign}
	if resp := <-e.SubmitAsync(req); resp.Err == nil {
		t.Fatal("foreign station should fail routing")
	}
	if _, err := submitWave(e, []cac.Request{req}); err == nil {
		t.Fatal("foreign station should fail wave routing")
	}
	if err := e.Release(1, foreign, 0); err == nil {
		t.Fatal("foreign release should fail")
	}
}

// TestDoRejectsShardOutOfRange pins Do's index check: a shard outside
// [0, Shards()) is an error, and fn never runs.
func TestDoRejectsShardOutOfRange(t *testing.T) {
	net := testNetwork(t, 1)
	e, err := New(Config{Network: net, Shards: 3, NewController: guardFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, s := range []int{-1, e.Shards()} {
		called := false
		if err := e.Do(s, func(cac.Controller) { called = true }); err == nil {
			t.Fatalf("Do(%d) on a %d-shard engine should error", s, e.Shards())
		}
		if called {
			t.Fatalf("Do(%d) ran fn", s)
		}
	}
	if err := e.Do(e.Shards()-1, func(cac.Controller) {}); err != nil {
		t.Fatalf("Do on the last shard: %v", err)
	}
}

// TestSubmitWaveToReusesBuffers pins the zero-churn scatter path: a
// response buffer reused across waves, with the engine reusing its
// routing buffers too, receives exactly the responses a fresh buffer
// does on an identical engine; short buffers are rejected.
func TestSubmitWaveToReusesBuffers(t *testing.T) {
	netA := testNetwork(t, 2)
	netB := testNetwork(t, 2)
	sys := facs.Must()
	factory := func(View) (cac.Controller, error) { return sys, nil }
	a, err := New(Config{Network: netA, Shards: 4, MaxBatch: 32, NewController: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Network: netB, Shards: 4, MaxBatch: 32, NewController: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	out := make([]serve.Response, 300)
	for wave := 0; wave < 3; wave++ {
		reqsA := genRequests(t, netA, int64(40+wave), 300)
		reqsB := genRequests(t, netB, int64(40+wave), 300)
		want, err := submitWave(a, reqsA)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SubmitWaveTo(reqsB, out); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i].Decision != out[i].Decision || want[i].Committed != out[i].Committed {
				t.Fatalf("wave %d response %d: fresh buffer %+v, reused buffer %+v",
					wave, i, want[i], out[i])
			}
		}
	}
	if err := b.SubmitWaveTo(genRequests(t, netB, 9, 10), make([]serve.Response, 9)); err == nil {
		t.Fatal("short response buffer should error")
	}
	if err := b.SubmitWaveTo(nil, nil); err != nil {
		t.Fatalf("empty wave: %v", err)
	}
}

// TestExportedEntryPoints pins the exported method sets of the two
// front ends: each operation keeps one entry point, so adding a copying
// or blocking twin of a kept call is a deliberate edit of these lists.
func TestExportedEntryPoints(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(&Engine{}), []string{
			"Close", "Do", "Flush", "HandoffCall", "Release", "RestoreFrom",
			"Shards", "SnapshotTo", "Stats", "SubmitAsync", "SubmitWaveTo", "Tick",
		}},
		{reflect.TypeOf(&serve.Service{}), []string{
			"Close", "Flush", "Release", "Stats", "SubmitAllInto", "SubmitAsync", "Tick",
		}},
	} {
		var got []string
		for i := 0; i < tc.typ.NumMethod(); i++ {
			got = append(got, tc.typ.Method(i).Name)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v methods:\n\tgot  %q\n\twant %q", tc.typ, got, tc.want)
		}
	}
}
