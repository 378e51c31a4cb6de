package scc

import (
	"bytes"
	"fmt"
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
// decide sequences and asserts byte-identical decisions throughout, with
// the cluster-coverage requirement on and off. Decide-then-commit steps
// exercise the Decide -> OnAdmit footprint hand-over: a twin ledger
// receives the same mutations through OnAdmit alone, and its demand
// matrix must stay equal to the ledger's after every step. Each
// scenario must send some clusters to the reference shadow, so the
// class shadow's fallback is exercised too.
func TestLedgerMatchesOracleRandomized(t *testing.T) {
	scenarios := []struct {
		name   string
		mutate func(*Config)
	}{
		{"defaults", func(*Config) {}},
		{"full-coverage", func(c *Config) { c.RequireClusterCoverage = true }},
		{"tight-threshold", func(c *Config) { c.Threshold = 0.4 }},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var adopted int
			var exact int64
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
						if ledger.demand[i] != twin.demand[i] {
							t.Fatalf("seed %d step %d: demand[%d] = %d, OnAdmit-only twin has %d",
								seed, step, i, ledger.demand[i], twin.demand[i])
						}
					}
				}
				if decisions == 0 {
					t.Fatal("randomized run rendered no decisions")
				}
				exact += ledger.Snapshot().ExactShadows
			}
			if adopted == 0 {
				t.Fatal("no commit adopted a stashed footprint; the hand-over is not exercised")
			}
			if exact == 0 {
				t.Fatal("no cluster took the reference shadow; the class shadow's fallback is not exercised")
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

// TestLedgerFootprintFallbackIsOracleSum pins the ledger's conservation
// invariant under full reservation, which names the subtest: through
// randomized admit / release / update / migrate / restore sequences on
// two ledgers a migration moves tracks between, every demand entry
// equals, after every operation, both the sum of the cached footprints
// and the recompute oracle's ExpectedDemand over the same calls. Each
// ledger has its own oracle, fed the same operations.
func TestLedgerFootprintFallbackIsOracleSum(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		net := newNet(t, 1)
		radius := 2.0 * 2000 * 1.5
		steps := 200
		if testing.Short() {
			steps = 60
		}
		var migrated, restored int
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ledgers := []*Ledger{newLedger(t, net), newLedger(t, net)}
			oracles := []*Controller{newSCC(t, net), newSCC(t, net)}
			nextID := 0
			for step := 0; step < steps; step++ {
				i := rng.Intn(2)
				l, o := ledgers[i], oracles[i]
				live := l.tracks
				switch op := rng.Float64(); {
				case op < 0.45: // admit
					req := randomRequest(t, rng, net, nextID, radius)
					nextID++
					l.OnAdmit(req)
					o.OnAdmit(req)
				case op < 0.65 && len(live) > 0: // release
					id := live[rng.Intn(len(live))].id
					l.OnRelease(id, nil, 0)
					o.OnRelease(id, nil, 0)
				case op < 0.8 && len(live) > 0: // kinematic update
					id := live[rng.Intn(len(live))].id
					pos := randomCoveredPoint(t, rng, net, radius)
					bs, err := net.StationAt(pos)
					if err != nil {
						t.Fatal(err)
					}
					heading, speed := rng.Float64()*360-180, rng.Float64()*120
					l.UpdateState(id, pos, heading, speed, bs.Hex())
					o.UpdateState(id, pos, heading, speed, bs.Hex())
				case op < 0.92: // migrate one cell's tracks to the sibling
					home := net.Stations()[rng.Intn(net.NumCells())].Hex()
					rows := l.MigrateOut(home, nil)
					ledgers[1-i].MigrateIn(rows)
					for _, r := range rows {
						o.OnRelease(r.ID, nil, 0)
						oracleMigrateIn(oracles[1-i], r)
					}
					migrated += len(rows)
				default: // restore a snapshot into a fresh twin
					twin := newLedger(t, net)
					if err := twin.RestoreFrom(bytes.NewReader(ledgerSnapshotBlob(t, l))); err != nil {
						t.Fatal(err)
					}
					ledgers[i] = twin
					restored++
				}
				for li, l := range ledgers {
					checkFootprintSum(t, l, oracles[li], fmt.Sprintf("seed %d step %d ledger %d", seed, step, li))
				}
			}
			if ledgers[0].ActiveCalls() == 0 && ledgers[1].ActiveCalls() == 0 {
				t.Fatal("randomized run left no tracks to sum")
			}
		}
		if migrated == 0 || restored == 0 {
			t.Fatalf("%d calls migrated, %d restores; want both", migrated, restored)
		}
	})
}

// oracleMigrateIn tracks a migrated call on the recompute oracle, as
// MigrateIn does on a ledger.
func oracleMigrateIn(c *Controller, r cac.MigratedCall) {
	c.ids = insertID(c.ids, r.ID)
	c.active[r.ID] = track{bu: r.BU, pos: r.Pos, headingDeg: r.HeadingDeg, speedMps: r.SpeedMps, home: r.Home}
}

// checkFootprintSum requires every demand entry of l to equal the sum
// of its cached footprints and oracle's ExpectedDemand there.
func checkFootprintSum(t *testing.T, l *Ledger, oracle *Controller, where string) {
	t.Helper()
	if l.ActiveCalls() != oracle.ActiveCalls() {
		t.Fatalf("%s: ledger tracks %d calls, oracle %d", where, l.ActiveCalls(), oracle.ActiveCalls())
	}
	h := l.cfg.Horizon + 1
	sums := make([]int, len(l.demand))
	for _, lt := range l.tracks {
		for _, fc := range lt.foot {
			sums[int(fc.cell)*h+int(fc.k)] += fc.amount
		}
	}
	for ci, bs := range l.stations {
		for k := 0; k < h; k++ {
			got := l.demand[ci*h+k]
			if got != sums[ci*h+k] {
				t.Fatalf("%s: demand at %v k=%d is %d, footprints sum to %d", where, bs.Hex(), k, got, sums[ci*h+k])
			}
			if want := oracle.ExpectedDemand(bs.Hex(), k); float64(got) != want {
				t.Fatalf("%s: demand at %v k=%d is %d, oracle %v", where, bs.Hex(), k, got, want)
			}
		}
	}
}

// TestLedgerDemandMatchesRecompute is the ledger-invariant property test:
// after a randomized admit/release/update sequence the matrix equals a
// from-scratch recomputation, within the horizon and beyond it.
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
	// Beyond the horizon ProjectedDemand re-derives every track's shadow
	// (exactDemand), which must be the oracle's too.
	for _, bs := range net.Stations() {
		for k := 0; k <= ledger.Config().Horizon+2; k++ {
			want := oracle.ExpectedDemand(bs.Hex(), k)
			got := ledger.ProjectedDemand(bs.Hex(), k)
			if float64(got) != want {
				t.Fatalf("demand at %v k=%d: ledger %d, recompute %v", bs.Hex(), k, got, want)
			}
		}
	}
	// Releasing everything must return the matrix to exactly zero.
	for _, id := range append([]int(nil), live...) {
		ledger.OnRelease(id, nil, 0)
	}
	for _, bs := range net.Stations() {
		if got := ledger.ProjectedDemand(bs.Hex(), 0); got != 0 {
			t.Fatalf("empty ledger demand at %v = %v, want exactly 0", bs.Hex(), got)
		}
	}
}

// TestLedgerIntegerLimitMatchesOracle pins the integer limit against
// the oracle's float comparison at ties: on a single 40 BU cell whose
// stationary calls reserve whole BU at every interval, demand landing
// exactly on a whole limit (Threshold 0.5: 20 BU) is accepted and one
// BU past it rejected, and under a fractional product (Threshold 0.51:
// 20.4 BU, floor 20) demand of 20 is accepted and 21 rejected.
func TestLedgerIntegerLimitMatchesOracle(t *testing.T) {
	net := newNet(t, 0)
	for _, tc := range []struct {
		threshold float64
		limit     int
	}{{0.5, 20}, {0.51, 20}} {
		mutate := func(c *Config) { c.Threshold = tc.threshold }
		oracle := newSCC(t, net, mutate)
		ledger := newLedger(t, net, mutate)
		if got := ledger.limits[0]; got != tc.limit {
			t.Fatalf("threshold %v: limit %d BU, want %d", tc.threshold, got, tc.limit)
		}
		// A video (10 BU) and five texts (1 BU each) reserve 15 BU.
		calls := []traffic.Class{traffic.Video, traffic.Text, traffic.Text, traffic.Text, traffic.Text, traffic.Text}
		for id, class := range calls {
			req := sccRequest(t, net, id, class, geo.Point{}, 0, 0)
			oracle.OnAdmit(req)
			ledger.OnAdmit(req)
		}
		for _, probe := range []struct {
			class traffic.Class
			want  cac.Decision
		}{
			{traffic.Voice, cac.Accept}, // 15 + 5 = 20, on the limit
			{traffic.Video, cac.Reject}, // 15 + 10 = 25
		} {
			req := sccRequest(t, net, 50, probe.class, geo.Point{}, 0, 0)
			want, err := oracle.Decide(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ledger.Decide(req)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || got != probe.want {
				t.Fatalf("threshold %v, %v request: ledger %v, oracle %v, want %v", tc.threshold, probe.class, got, want, probe.want)
			}
		}
		// One more text puts a voice request one BU past the limit.
		req := sccRequest(t, net, 60, traffic.Text, geo.Point{}, 0, 0)
		oracle.OnAdmit(req)
		ledger.OnAdmit(req)
		probe := sccRequest(t, net, 61, traffic.Voice, geo.Point{}, 0, 0)
		want, err := oracle.Decide(probe)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ledger.Decide(probe); err != nil || got != want || got != cac.Reject {
			t.Fatalf("threshold %v, 21 BU: ledger %v (%v), oracle %v, want reject", tc.threshold, got, err, want)
		}
	}
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
// decision path: once warmed, DecideBatchInto allocates nothing (the
// subtest names full reservation), on a batch where some requests' projections leave coverage, so the
// cluster-coverage check rejects them. That check must answer from the
// ledger's station table; the network's StationAt formats an error for
// every point off coverage.
func TestLedgerDecideZeroAllocs(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		net := newSizedNet(t, 2, 500)
		l := newLedger(t, net, func(c *Config) { c.RequireClusterCoverage = true })
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
	if got, want := ledger.ProjectedDemand(east, deep), oracle.ExpectedDemand(east, deep); float64(got) != want {
		t.Fatalf("beyond-horizon demand = %v, want %v", got, want)
	}
	if got := ledger.ProjectedDemand(geo.Hex{Q: 40, R: 40}, 0); got != 0 {
		t.Fatalf("demand outside the deployment = %v, want 0", got)
	}
}

// TestDecideStashMatchesFootprint pins the projection plan decide
// shares between its coverage check, its clusters and the footprint it
// stashes: for 1e4 random requests, many placed on hex corners and on
// the coverage edge (a hair inside, on and outside it), the footprint an
// accepted decision stashes is exactly the one footprint derives from
// the call's track alone (the subtest names full reservation).
func TestDecideStashMatchesFootprint(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		net := newSizedNet(t, 3, 500)
		l := newLedger(t, net, func(c *Config) { c.RequireClusterCoverage = true })
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

// BenchmarkLedgerDecideDistrict times the decision kernel on the district geometry (127 cells of 500 m, 40 BU, the
// coverage requirement): DecideBatchInto over 256 random requests inside
// coverage, against a ledger tracking 400 calls. The metrics report the
// shadows' visited stations and evaluated weights per decision.
func BenchmarkLedgerDecideDistrict(b *testing.B) {
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 6, CellRadiusM: 500, CapacityBU: 40})
	if err != nil {
		b.Fatal(err)
	}
	l, err := NewLedger(Config{Network: net, RequireClusterCoverage: true})
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
