package scc

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/traffic"
)

func gpsEstimate(pos geo.Point, headingDeg, speedKmh float64) gps.Estimate {
	return gps.Estimate{Pos: pos, HeadingDeg: headingDeg, SpeedKmh: speedKmh}
}

func newLedger(t *testing.T, net *cell.Network, mutate ...func(*Config)) *Ledger {
	t.Helper()
	cfg := Config{Network: net}
	for _, m := range mutate {
		m(&cfg)
	}
	l, err := NewLedger(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// randomCoveredPoint samples a plane position inside network coverage.
func randomCoveredPoint(t *testing.T, rng *rand.Rand, net *cell.Network, radius float64) geo.Point {
	t.Helper()
	for tries := 0; tries < 10000; tries++ {
		p := geo.Point{
			X: (2*rng.Float64() - 1) * radius,
			Y: (2*rng.Float64() - 1) * radius,
		}
		if _, err := net.StationAt(p); err == nil {
			return p
		}
	}
	t.Fatal("could not sample a covered point")
	return geo.Point{}
}

func randomRequest(t *testing.T, rng *rand.Rand, net *cell.Network, id int, radius float64) cac.Request {
	t.Helper()
	classes := []traffic.Class{traffic.Text, traffic.Voice, traffic.Video}
	class := classes[rng.Intn(len(classes))]
	pos := randomCoveredPoint(t, rng, net, radius)
	bs, err := net.StationAt(pos)
	if err != nil {
		t.Fatal(err)
	}
	est := gpsEstimate(pos, rng.Float64()*360-180, rng.Float64()*120)
	return cac.Request{
		Call:    cell.Call{ID: id, Class: class, BU: class.BandwidthUnits()},
		Station: bs,
		Est:     est,
	}
}

// TestLedgerMatchesOracleRandomized drives the recompute Controller and
// the Ledger through identical randomized admit / release / update /
// decide sequences and asserts byte-identical decisions throughout, for
// both reservation modes and with the cluster-coverage requirement on
// and off. Decide-then-commit steps exercise the Decide -> OnAdmit
// footprint hand-over: a twin ledger receives the same mutations through
// OnAdmit alone, and its demand matrix must stay bitwise equal to the
// ledger's after every step.
func TestLedgerMatchesOracleRandomized(t *testing.T) {
	scenarios := []struct {
		name   string
		mutate func(*Config)
	}{
		{"weighted", func(*Config) {}},
		{"full-coverage", func(c *Config) {
			c.Reservation = ReservationFull
			c.RequireClusterCoverage = true
		}},
		{"tight-threshold", func(c *Config) { c.Threshold = 0.4 }},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var adopted int
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				net := newNet(t, 2)
				radius := 2.0 * 2000 * 2 // cover the 2-ring deployment
				oracle := newSCC(t, net, sc.mutate)
				ledger := newLedger(t, net, sc.mutate)
				twin := newLedger(t, net, sc.mutate)
				live := []int{}
				nextID := 0
				decisions := 0
				for step := 0; step < 400; step++ {
					switch op := rng.Float64(); {
					case op < 0.4: // admit, with no decision stashing its footprint
						req := randomRequest(t, rng, net, nextID, radius)
						nextID++
						oracle.OnAdmit(req)
						ledger.OnAdmit(req)
						twin.OnAdmit(req)
						live = append(live, req.Call.ID)
					case op < 0.52 && len(live) > 0: // release
						i := rng.Intn(len(live))
						id := live[i]
						live = append(live[:i], live[i+1:]...)
						oracle.OnRelease(id, nil, 0)
						ledger.OnRelease(id, nil, 0)
						twin.OnRelease(id, nil, 0)
					case op < 0.64 && len(live) > 0: // kinematic update
						id := live[rng.Intn(len(live))]
						pos := randomCoveredPoint(t, rng, net, radius)
						heading := rng.Float64()*360 - 180
						speed := rng.Float64() * 120
						bs, err := net.StationAt(pos)
						if err != nil {
							t.Fatal(err)
						}
						oracle.UpdateState(id, pos, heading, speed, bs.Hex())
						ledger.UpdateState(id, pos, heading, speed, bs.Hex())
						twin.UpdateState(id, pos, heading, speed, bs.Hex())
					case op < 0.82: // decide a chunk, then commit its accepts
						adopted += decideThenCommit(t, rng, net, oracle, ledger, twin, &live, &nextID, radius)
						decisions++
					default: // decide
						req := randomRequest(t, rng, net, 1_000_000+step, radius)
						want, err := oracle.Decide(req)
						if err != nil {
							t.Fatal(err)
						}
						got, err := ledger.Decide(req)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("seed %d step %d: ledger = %v, oracle = %v", seed, step, got, want)
						}
						decisions++
					}
					if oracle.ActiveCalls() != ledger.ActiveCalls() {
						t.Fatalf("active mismatch: oracle %d, ledger %d", oracle.ActiveCalls(), ledger.ActiveCalls())
					}
					for i := range ledger.demand {
						if math.Float64bits(ledger.demand[i]) != math.Float64bits(twin.demand[i]) {
							t.Fatalf("seed %d step %d: demand[%d] = %v, OnAdmit-only twin has %v",
								seed, step, i, ledger.demand[i], twin.demand[i])
						}
					}
				}
				if decisions == 0 {
					t.Fatal("randomized run rendered no decisions")
				}
			}
			if adopted == 0 {
				t.Fatal("no commit adopted a stashed footprint; the hand-over is not exercised")
			}
		})
	}
}

// decideThenCommit is one decide-then-commit step of the randomized
// oracle suite: the ledger decides a chunk with DecideBatchInto (against
// the oracle's per-request decisions), then the accepted requests are
// committed in order, each through one of the hand-over's edge cases —
// a plain commit, a skipped commit (the station's Admit failed), an
// estimate mutated between decide and admit (the stash must not match),
// or a snapshot round-trip first (the restore drops the stash). Some
// chunk requests re-admit a tracked ID. The twin ledger receives the
// commits through OnAdmit alone. It returns how many commits adopted a
// stashed footprint.
func decideThenCommit(t *testing.T, rng *rand.Rand, net *cell.Network, oracle *Controller, ledger, twin *Ledger, live *[]int, nextID *int, radius float64) int {
	t.Helper()
	reqs := make([]cac.Request, 1+rng.Intn(8))
	fresh := make([]bool, len(reqs))
	for i := range reqs {
		id := *nextID
		if len(*live) > 0 && rng.Float64() < 0.2 {
			id = (*live)[rng.Intn(len(*live))] // re-admission of a tracked ID
		} else {
			*nextID++
			fresh[i] = true
		}
		reqs[i] = randomRequest(t, rng, net, id, radius)
	}
	got := make([]cac.Decision, len(reqs))
	if err := ledger.DecideBatchInto(reqs, got); err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		want, err := oracle.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("batch request %d (call %d): ledger = %v, oracle = %v", i, req.Call.ID, got[i], want)
		}
	}
	adopted := 0
	restored := false // a restore drops the stash for the rest of the chunk
	for i, req := range reqs {
		if !got[i].Accepted() {
			continue
		}
		wantAdopt := !restored
		switch c := rng.Float64(); {
		case c < 0.15: // the station's Admit failed: no commit
			continue
		case c < 0.3: // estimate mutated between decide and admit
			req.Est.HeadingDeg = math.Nextafter(req.Est.HeadingDeg, 1000)
			wantAdopt = false
		case c < 0.4: // snapshot round-trip between decide and admit
			var buf bytes.Buffer
			if err := ledger.SnapshotTo(&buf); err != nil {
				t.Fatal(err)
			}
			if err := ledger.RestoreFrom(&buf); err != nil {
				t.Fatal(err)
			}
			if ledger.handNext != 0 || len(ledger.hand) != 0 || len(ledger.handCells) != 0 {
				t.Fatal("RestoreFrom kept the hand-over stash")
			}
			restored, wantAdopt = true, false
		}
		before := ledger.handNext
		oracle.OnAdmit(req)
		ledger.OnAdmit(req)
		twin.OnAdmit(req)
		if didAdopt := ledger.handNext != before; didAdopt != wantAdopt {
			t.Fatalf("call %d: adopted stashed footprint = %v, want %v", req.Call.ID, didAdopt, wantAdopt)
		} else if didAdopt {
			adopted++
		}
		if fresh[i] {
			*live = append(*live, req.Call.ID)
		}
	}
	return adopted
}

// TestLedgerFootprintFallbackIsOracleSum pins the guard band's proof
// obligation: through randomized admit / release / update / migrate
// sequences in both reservation modes, the cached-footprint sum the
// fallback answers with equals the oracle summation exactDemand
// bit for bit, for every (cell, interval), after every operation — on
// both ledgers a migration moves tracks between.
func TestLedgerFootprintFallbackIsOracleSum(t *testing.T) {
	for _, mode := range []ReservationMode{ReservationWeighted, ReservationFull} {
		t.Run(mode.String(), func(t *testing.T) {
			mutate := func(c *Config) { c.Reservation = mode }
			net := newNet(t, 1)
			radius := 2.0 * 2000 * 1.5
			steps := 200
			if testing.Short() {
				steps = 60
			}
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ledgers := []*Ledger{newLedger(t, net, mutate), newLedger(t, net, mutate)}
				nextID := 0
				for step := 0; step < steps; step++ {
					l := ledgers[rng.Intn(2)]
					live := l.tracks
					switch op := rng.Float64(); {
					case op < 0.45: // admit
						l.OnAdmit(randomRequest(t, rng, net, nextID, radius))
						nextID++
					case op < 0.65 && len(live) > 0: // release
						l.OnRelease(live[rng.Intn(len(live))].id, nil, 0)
					case op < 0.85 && len(live) > 0: // kinematic update
						id := live[rng.Intn(len(live))].id
						pos := randomCoveredPoint(t, rng, net, radius)
						bs, err := net.StationAt(pos)
						if err != nil {
							t.Fatal(err)
						}
						l.UpdateState(id, pos, rng.Float64()*360-180, rng.Float64()*120, bs.Hex())
					default: // migrate one cell's tracks to the sibling
						other := ledgers[0]
						if other == l {
							other = ledgers[1]
						}
						home := net.Stations()[rng.Intn(net.NumCells())].Hex()
						other.MigrateIn(l.MigrateOut(home, nil))
					}
					for li, l := range ledgers {
						for ci, bs := range l.stations {
							for k := 0; k <= l.cfg.Horizon; k++ {
								got, want := l.footprintDemand(ci, k), l.exactDemand(ci, k)
								if math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("seed %d step %d ledger %d: footprint sum for %v k=%d is %v, oracle sum %v",
										seed, step, li, bs.Hex(), k, got, want)
								}
							}
						}
					}
				}
				if ledgers[0].ActiveCalls() == 0 && ledgers[1].ActiveCalls() == 0 {
					t.Fatal("randomized run left no tracks to sum")
				}
			}
		})
	}
}

// TestLedgerDemandMatchesRecompute is the ledger-invariant property test:
// after a randomized admit/release/update sequence the matrix equals a
// from-scratch recomputation within floating-point drift, and bitwise
// after a rebuild (OnTick).
func TestLedgerDemandMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := newNet(t, 1)
	radius := 2.0 * 2000 * 1.5
	ledger := newLedger(t, net)
	oracle := newSCC(t, net)
	live := []int{}
	for step := 0; step < 300; step++ {
		switch op := rng.Float64(); {
		case op < 0.5:
			req := randomRequest(t, rng, net, step, radius)
			ledger.OnAdmit(req)
			oracle.OnAdmit(req)
			live = append(live, req.Call.ID)
		case op < 0.75 && len(live) > 0:
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			ledger.OnRelease(id, nil, 0)
			oracle.OnRelease(id, nil, 0)
		case len(live) > 0:
			id := live[rng.Intn(len(live))]
			pos := randomCoveredPoint(t, rng, net, radius)
			bs, err := net.StationAt(pos)
			if err != nil {
				t.Fatal(err)
			}
			ledger.UpdateState(id, pos, 45, 60, bs.Hex())
			oracle.UpdateState(id, pos, 45, 60, bs.Hex())
		}
	}
	for _, bs := range net.Stations() {
		for k := 0; k <= ledger.Config().Horizon; k++ {
			want := oracle.ExpectedDemand(bs.Hex(), k)
			got := ledger.ProjectedDemand(bs.Hex(), k)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("drifted demand at %v k=%d: ledger %v, recompute %v", bs.Hex(), k, got, want)
			}
		}
	}
	ledger.OnTick(0)
	// Beyond the horizon ProjectedDemand re-derives every track's shadow
	// (exactDemand), which must be the oracle's too.
	for _, bs := range net.Stations() {
		for k := 0; k <= ledger.Config().Horizon+2; k++ {
			want := oracle.ExpectedDemand(bs.Hex(), k)
			got := ledger.ProjectedDemand(bs.Hex(), k)
			if got != want {
				t.Fatalf("rebuild not bitwise exact at %v k=%d: ledger %v, recompute %v", bs.Hex(), k, got, want)
			}
		}
	}
	// Releasing everything and rebuilding must return the matrix to
	// exactly zero.
	for _, id := range append([]int(nil), live...) {
		ledger.OnRelease(id, nil, 0)
	}
	ledger.OnTick(0)
	for _, bs := range net.Stations() {
		if got := ledger.ProjectedDemand(bs.Hex(), 0); got != 0 {
			t.Fatalf("empty ledger demand at %v = %v, want exactly 0", bs.Hex(), got)
		}
	}
}

// TestLedgerGuardBandFallback crafts demand sitting exactly on the
// survivability threshold, where a naive incremental comparison could
// flip on drift, and checks the ledger against the oracle there. In
// ReservationWeighted mode the tie must go through the exact footprint
// summation; in ReservationFull mode every aggregate is a whole number
// of BU, exact in the matrix, so the band must never fire.
func TestLedgerGuardBandFallback(t *testing.T) {
	net := newNet(t, 0) // single 40 BU cell
	decide := func(t *testing.T, oracle *Controller, ledger *Ledger, req cac.Request) cac.Decision {
		t.Helper()
		want, err := oracle.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ledger.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("boundary decision for call %d: ledger %v, oracle %v", req.Call.ID, got, want)
		}
		return got
	}
	t.Run("full", func(t *testing.T) {
		mutate := func(c *Config) {
			c.Threshold = 0.5 // 20 BU budget
			c.Reservation = ReservationFull
		}
		oracle := newSCC(t, net, mutate)
		ledger := newLedger(t, net, mutate)
		// Two stationary video calls reserve exactly 20 BU at every
		// interval.
		for id := 0; id < 2; id++ {
			req := sccRequest(t, net, id, traffic.Video, geo.Point{}, 0, 0)
			oracle.OnAdmit(req)
			ledger.OnAdmit(req)
		}
		// A stationary video request projects 20 + 10 > 20: reject.
		decide(t, oracle, ledger, sccRequest(t, net, 50, traffic.Video, geo.Point{}, 0, 0))
		// The release of one video (20 -> 10) re-opens the cell: the
		// next video lands exactly on the limit, 10 + 10 = 20.
		ledger.OnRelease(0, nil, 0)
		oracle.OnRelease(0, nil, 0)
		if got := decide(t, oracle, ledger, sccRequest(t, net, 51, traffic.Video, geo.Point{}, 0, 0)); got != cac.Accept {
			t.Fatalf("post-release decision %v, want accept", got)
		}
		if fallbacks, _ := ledger.Stats(); fallbacks != 0 {
			t.Fatalf("guard band fired %d times on whole-BU aggregates", fallbacks)
		}
	})
	t.Run("weighted", func(t *testing.T) {
		mutate := func(c *Config) {
			c.Threshold = 0.5
			c.Reservation = ReservationWeighted
		}
		oracle := newSCC(t, net, mutate)
		ledger := newLedger(t, net, mutate)
		// On the single cell p = 1, and at k = 0 survival is 1, so one
		// tracked video and a video request meet the 20 BU limit
		// exactly at k = 0; later intervals decay below it.
		req := sccRequest(t, net, 0, traffic.Video, geo.Point{}, 0, 0)
		oracle.OnAdmit(req)
		ledger.OnAdmit(req)
		if got := decide(t, oracle, ledger, sccRequest(t, net, 50, traffic.Video, geo.Point{}, 0, 0)); got != cac.Accept {
			t.Fatalf("tie decision %v, want accept", got)
		}
		if fallbacks, _ := ledger.Stats(); fallbacks == 0 {
			t.Fatal("exact fallback should have triggered on the threshold boundary")
		}
	})
}

// TestLedgerDecideBatch asserts the native batch path returns exactly
// the sequential decisions, and that the generic adapter selects it.
func TestLedgerDecideBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := newNet(t, 1)
	radius := 2.0 * 2000 * 1.5
	ledger := newLedger(t, net)
	for id := 0; id < 40; id++ {
		ledger.OnAdmit(randomRequest(t, rng, net, id, radius))
	}
	reqs := make([]cac.Request, 64)
	for i := range reqs {
		reqs[i] = randomRequest(t, rng, net, 1000+i, radius)
	}
	batch, err := cac.DecideAll(ledger, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(reqs) {
		t.Fatalf("batch returned %d decisions for %d requests", len(batch), len(reqs))
	}
	for i, req := range reqs {
		want, err := ledger.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != want {
			t.Fatalf("request %d: batch %v, sequential %v", i, batch[i], want)
		}
	}
	// Invalid requests abort the batch.
	bad := append(append([]cac.Request(nil), reqs[:3]...), cac.Request{})
	if _, err := ledger.DecideBatch(bad); err == nil {
		t.Fatal("invalid request should abort the batch")
	}
}

// TestLedgerDecideZeroAllocs is the allocation gate on the ledger's
// decision path: once warmed, DecideBatchInto allocates nothing in
// either reservation mode, on a batch where some requests' projections
// leave coverage, so the cluster-coverage check rejects them. That
// check must answer from the ledger's station table; the network's
// StationAt formats an error for every point off coverage.
func TestLedgerDecideZeroAllocs(t *testing.T) {
	for _, mode := range []ReservationMode{ReservationWeighted, ReservationFull} {
		t.Run(mode.String(), func(t *testing.T) {
			net := newSizedNet(t, 2, 500)
			l := newLedger(t, net, func(c *Config) {
				c.Reservation = mode
				c.RequireClusterCoverage = true
			})
			rng := rand.New(rand.NewSource(9))
			const radius = 500 * 4
			for id := 0; id < 20; id++ {
				l.OnAdmit(randomRequest(t, rng, net, id, radius))
			}
			reqs := make([]cac.Request, 64)
			leaving := 0
			for i := range reqs {
				reqs[i] = randomRequest(t, rng, net, 100+i, radius)
				est := reqs[i].Est
				for k := 1; k <= l.cfg.Horizon; k++ {
					q := geo.Move(est.Pos, est.HeadingDeg, geo.KmhToMps(est.SpeedKmh)*float64(k)*l.cfg.DeltaT)
					if _, err := net.StationAt(q); err != nil {
						leaving++
						break
					}
				}
			}
			if leaving == 0 || leaving == len(reqs) {
				t.Fatalf("%d of %d requests leave coverage; want some, not all", leaving, len(reqs))
			}
			out := make([]cac.Decision, len(reqs))
			decide := func() {
				if err := l.DecideBatchInto(reqs, out); err != nil {
					t.Fatal(err)
				}
			}
			decide() // warm the scratch buffers
			if allocs := testing.AllocsPerRun(20, decide); allocs != 0 {
				t.Fatalf("DecideBatchInto allocates %v times per batch of %d (%d leave coverage)", allocs, len(reqs), leaving)
			}
		})
	}
}

// TestLedgerLifecycle covers the remaining Observer/StateUpdater edges:
// unknown releases and updates are ignored, re-admission replaces the
// footprint, and Name/accessors report the ledger identity.
func TestLedgerLifecycle(t *testing.T) {
	net := newNet(t, 1)
	ledger := newLedger(t, net)
	if ledger.Name() != "scc-ledger" {
		t.Fatalf("Name = %q", ledger.Name())
	}
	ledger.OnRelease(99, nil, 0)
	ledger.UpdateState(99, geo.Point{}, 0, 0, geo.Hex{})
	if ledger.ActiveCalls() != 0 {
		t.Fatal("unknown ids must not create tracks")
	}
	req := sccRequest(t, net, 1, traffic.Video, geo.Point{}, 0, 0)
	ledger.OnAdmit(req)
	first := ledger.ProjectedDemand(geo.Hex{}, 0)
	// Re-admitting the same ID from a new position replaces, not stacks.
	east := geo.Hex{Q: 1, R: 0}
	req2 := sccRequest(t, net, 1, traffic.Video, net.Layout().Center(east), 0, 0)
	ledger.OnAdmit(req2)
	if ledger.ActiveCalls() != 1 {
		t.Fatalf("re-admission duplicated the track: %d active", ledger.ActiveCalls())
	}
	if got := ledger.ProjectedDemand(geo.Hex{}, 0); got >= first {
		t.Fatalf("home demand after re-admission elsewhere = %v, want < %v", got, first)
	}
	// Beyond-horizon queries fall back to the exact summation.
	oracle := newSCC(t, net)
	oracle.OnAdmit(req2)
	deep := ledger.Config().Horizon + 3
	if got, want := ledger.ProjectedDemand(east, deep), oracle.ExpectedDemand(east, deep); got != want {
		t.Fatalf("beyond-horizon demand = %v, want %v", got, want)
	}
	if got := ledger.ProjectedDemand(geo.Hex{Q: 40, R: 40}, 0); got != 0 {
		t.Fatalf("demand outside the deployment = %v, want 0", got)
	}
}

// TestLedgerRebuildDuringChurn pins a regression: the ops-budget
// rebuild used to fire from inside apply(-1), while the footprint
// being removed was still registered in the track set, resurrecting it
// wholesale. Churning enough admit/release pairs to trip the budget
// mid-removal must leave the matrix exactly on the from-scratch sum.
func TestLedgerRebuildDuringChurn(t *testing.T) {
	net := newNet(t, 0) // single cell: footprints are small and cheap
	ledger := newLedger(t, net)
	// One persistent stationary video call...
	keeper := sccRequest(t, net, 1, traffic.Video, geo.Point{}, 0, 0)
	ledger.OnAdmit(keeper)
	// ...plus enough admit/release churn of a second call to spend the
	// rebuild ops budget several times over, so rebuilds land at every
	// phase of the mutation cycle.
	churn := sccRequest(t, net, 2, traffic.Voice, geo.Point{}, 0, 0)
	for i := 0; i < 90_000; i++ {
		ledger.OnAdmit(churn)
		ledger.OnRelease(2, nil, 0)
	}
	if _, rebuilds := ledger.Stats(); rebuilds == 0 {
		t.Fatal("churn did not trip the ops-budget rebuild; the regression is not exercised")
	}
	oracle := newSCC(t, net)
	oracle.OnAdmit(keeper)
	for k := 0; k <= ledger.Config().Horizon; k++ {
		want := oracle.ExpectedDemand(geo.Hex{}, k)
		if got := ledger.ProjectedDemand(geo.Hex{}, k); math.Abs(got-want) > 1e-9 {
			t.Fatalf("k=%d: matrix %v, from-scratch %v (released footprint resurrected?)", k, got, want)
		}
	}
}

// TestLedgerTickSkipsCleanMatrix asserts OnTick is free when nothing
// changed since the last rebuild.
func TestLedgerTickSkipsCleanMatrix(t *testing.T) {
	net := newNet(t, 0)
	ledger := newLedger(t, net)
	ledger.OnAdmit(sccRequest(t, net, 1, traffic.Voice, geo.Point{}, 0, 0))
	ledger.OnTick(10)
	_, after := ledger.Stats()
	ledger.OnTick(20)
	ledger.OnTick(30)
	if _, got := ledger.Stats(); got != after {
		t.Fatalf("clean-matrix ticks rebuilt anyway: %d -> %d rebuilds", after, got)
	}
	// New churn re-arms the rebuild.
	ledger.OnRelease(1, nil, 0)
	ledger.OnTick(40)
	if _, got := ledger.Stats(); got != after+1 {
		t.Fatalf("dirty tick should rebuild: %d -> %d", after, got)
	}
}

// TestDecideStashMatchesFootprint pins the projection plan decide
// shares between its coverage check, its clusters and the footprint it
// stashes: for 1e4 random requests, many placed on hex corners and on
// the coverage edge (a hair inside, on and outside it), the footprint an
// accepted decision stashes is exactly the one footprint derives from
// the call's track alone, in both reservation modes.
func TestDecideStashMatchesFootprint(t *testing.T) {
	for _, mode := range []ReservationMode{ReservationWeighted, ReservationFull} {
		t.Run(mode.String(), func(t *testing.T) {
			net := newSizedNet(t, 3, 500)
			l := newLedger(t, net, func(c *Config) {
				c.Reservation = mode
				c.RequireClusterCoverage = true
			})
			stations := net.Stations()
			radius := net.Layout().CellRadius
			rng := rand.New(rand.NewSource(31))
			classes := []traffic.Class{traffic.Text, traffic.Voice, traffic.Video}
			n := 10000
			if testing.Short() {
				n = 2000
			}
			accepted := 0
			var live []int
			for id := 0; id < n; id++ {
				bs := stations[rng.Intn(len(stations))]
				c := bs.Pos()
				// Pointy-top corners sit at 30° + k·60°; f scales the
				// corner distance a hair in, onto or out of the hex.
				a := math.Pi/6 + math.Pi/3*float64(rng.Intn(6))
				f := []float64{1 - 1e-12, 1, 1 + 1e-12, 1.01, rng.Float64()}[rng.Intn(5)]
				if rng.Intn(4) == 0 {
					a = rng.Float64() * 2 * math.Pi
				}
				pos := geo.Point{X: c.X + f*radius*math.Cos(a), Y: c.Y + f*radius*math.Sin(a)}
				heading := rng.Float64()*360 - 180
				speed := []float64{0, rng.Float64() * 120, rng.Float64() * 300}[rng.Intn(3)]
				class := classes[rng.Intn(len(classes))]
				req := cac.Request{
					Call:    cell.Call{ID: id, Class: class, BU: class.BandwidthUnits()},
					Station: bs,
					Est:     gpsEstimate(pos, heading, speed),
				}
				d, err := l.Decide(req)
				if err != nil {
					t.Fatal(err)
				}
				if d != cac.Accept {
					continue
				}
				accepted++
				if len(l.hand) != 1 {
					t.Fatalf("request %d: accepted with %d stashed footprints", id, len(l.hand))
				}
				got := l.handCells[l.hand[0].lo:l.hand[0].hi]
				want := l.footprint(nil, track{bu: req.Call.BU, pos: pos, headingDeg: heading, speedMps: geo.KmhToMps(speed)})
				if len(got) != len(want) {
					t.Fatalf("request %d at %v: stashed %d cells, footprint %d", id, pos, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("request %d at %v cell %d: stashed %+v, footprint %+v", id, pos, i, got[i], want[i])
					}
				}
				// Keep a few calls tracked, so some requests are refused.
				if rng.Intn(8) == 0 {
					l.OnAdmit(req)
					live = append(live, id)
					if len(live) > 12 {
						l.OnRelease(live[0], nil, 0)
						live = live[1:]
					}
				}
			}
			t.Logf("%d of %d requests accepted", accepted, n)
			if accepted < n/4 || accepted == n {
				t.Fatalf("%d of %d requests accepted; want a mix", accepted, n)
			}
		})
	}
}

// TestFullRebuildLeavesMatrixUnchanged pins why ReservationFull skips
// the tick and ops-budget rebuilds: after random admits, releases,
// kinematic updates, decisions and migrations, a Rebuild rewrites every
// matrix entry with its own bits, and OnTick never runs one.
func TestFullRebuildLeavesMatrixUnchanged(t *testing.T) {
	net := newNet(t, 2)
	l := newLedger(t, net, func(c *Config) { c.Reservation = ReservationFull })
	rng := rand.New(rand.NewSource(5))
	var live []int
	nextID := 0
	var migrated []cac.MigratedCall
	for step := 0; step < 600; step++ {
		driveLedgerStep(t, l, rng, net, &live, &nextID, step)
		if step%40 != 39 {
			continue
		}
		// Move one cell's calls out and back in, as a rebalance does.
		migrated = l.MigrateOut(net.Stations()[rng.Intn(net.NumCells())].Hex(), migrated[:0])
		l.MigrateIn(migrated)
		l.OnTick(float64(step))
		if _, rebuilds := l.Stats(); rebuilds != 0 {
			t.Fatalf("step %d: a full-reservation tick rebuilt the matrix (%d rebuilds)", step, rebuilds)
		}
		before := append([]float64(nil), l.demand...)
		l.Rebuild()
		for i := range before {
			if math.Float64bits(l.demand[i]) != math.Float64bits(before[i]) {
				t.Fatalf("step %d: Rebuild moved entry %d from %v to %v", step, i, before[i], l.demand[i])
			}
		}
		if _, rebuilds := l.Stats(); rebuilds != 1 {
			t.Fatalf("explicit Rebuild counted %d rebuilds, want 1", rebuilds)
		}
		l.rebuilds = 0
	}
	if len(live) == 0 {
		t.Fatal("churn left no live calls; the matrix under test is empty")
	}
}

// BenchmarkLedgerDecideDistrict times the full-reservation decision
// kernel on the district geometry (127 cells of 500 m, 40 BU, the
// coverage requirement): DecideBatchInto over 256 random requests inside
// coverage, against a ledger tracking 400 calls. The metrics report the
// shadows' visited stations and evaluated weights per decision.
func BenchmarkLedgerDecideDistrict(b *testing.B) {
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 6, CellRadiusM: 500, CapacityBU: 40})
	if err != nil {
		b.Fatal(err)
	}
	l, err := NewLedger(Config{Network: net, Reservation: ReservationFull, RequireClusterCoverage: true})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	classes := []traffic.Class{traffic.Text, traffic.Voice, traffic.Video}
	request := func(id int) cac.Request {
		for {
			p := geo.Point{X: (2*rng.Float64() - 1) * 5000, Y: (2*rng.Float64() - 1) * 5000}
			bs, err := net.StationAt(p)
			if err != nil {
				continue
			}
			class := classes[rng.Intn(len(classes))]
			return cac.Request{
				Call:    cell.Call{ID: id, Class: class, BU: class.BandwidthUnits()},
				Station: bs,
				Est:     gpsEstimate(p, rng.Float64()*360-180, rng.Float64()*120),
			}
		}
	}
	for id := 0; id < 400; id++ {
		l.OnAdmit(request(id))
	}
	reqs := make([]cac.Request, 256)
	for i := range reqs {
		reqs[i] = request(1000 + i)
	}
	out := make([]cac.Decision, len(reqs))
	before := l.classStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.DecideBatchInto(reqs, out); err != nil {
			b.Fatal(err)
		}
	}
	n := float64(b.N * len(reqs))
	b.ReportMetric(b.Elapsed().Seconds()*1e9/n, "ns/decision")
	b.ReportMetric(float64(l.classStats.visited-before.visited)/n, "visited/decision")
	b.ReportMetric(float64(l.classStats.exps-before.exps)/n, "weights/decision")
}
