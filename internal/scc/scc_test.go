package scc

import (
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/traffic"
)

func newNet(t *testing.T, rings int) *cell.Network {
	t.Helper()
	n, err := cell.NewNetwork(cell.NetworkConfig{Rings: rings})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newSCC(t *testing.T, net *cell.Network, mutate ...func(*Config)) *Controller {
	t.Helper()
	cfg := Config{Network: net}
	for _, m := range mutate {
		m(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sccRequest(t *testing.T, net *cell.Network, id int, class traffic.Class, pos geo.Point, headingDeg, speedKmh float64) cac.Request {
	t.Helper()
	bs, err := net.StationAt(pos)
	if err != nil {
		t.Fatal(err)
	}
	est := gps.Estimate{SpeedKmh: speedKmh, HeadingDeg: headingDeg, Pos: pos}
	return cac.Request{
		Call:    cell.Call{ID: id, Class: class, BU: class.BandwidthUnits()},
		Station: bs,
		Obs:     gps.Observe(est, bs.Pos()),
		Est:     est,
	}
}

func TestConfigValidate(t *testing.T) {
	net := newNet(t, 1)
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"defaults", func(*Config) {}, false},
		{"no network", func(c *Config) { c.Network = nil }, true},
		{"bad delta-t", func(c *Config) { c.DeltaT = -1 }, true},
		{"bad horizon", func(c *Config) { c.Horizon = -2 }, true},
		{"threshold above one", func(c *Config) { c.Threshold = 1.5 }, true},
		{"bad sigma", func(c *Config) { c.SigmaPosM = -3 }, true},
		{"bad spread", func(c *Config) { c.SpreadAlpha = -0.1 }, true},
		{"bad min prob", func(c *Config) { c.MinProb = 2 }, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Network: net}
			tc.mutate(&cfg)
			_, err := New(cfg)
			if gotErr := err != nil; gotErr != tc.wantErr {
				t.Fatalf("New = %v, want error %v", err, tc.wantErr)
			}
		})
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := newSCC(t, newNet(t, 1))
	cfg := c.Config()
	if cfg.DeltaT != 10 || cfg.Horizon != 6 || cfg.Threshold != 0.85 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if c.Name() != "scc" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestShadowProbabilities(t *testing.T) {
	net := newNet(t, 2)
	c := newSCC(t, net)
	// A stationary mobile at the centre: nearly all mass on the home cell.
	shadow := c.Shadow(geo.Point{}, 0, 0, 0)
	if len(shadow) == 0 {
		t.Fatal("empty shadow")
	}
	if shadow[0].Hex != (geo.Hex{Q: 0, R: 0}) {
		t.Fatalf("strongest shadow on %v, want home cell", shadow[0].Hex)
	}
	if shadow[0].Prob < 0.95 {
		t.Fatalf("home probability = %v, want ~1 for sigma << cell radius", shadow[0].Prob)
	}
	// Probabilities sum to at most 1 and are sorted descending.
	var sum float64
	for i, cp := range shadow {
		sum += cp.Prob
		if i > 0 && cp.Prob > shadow[i-1].Prob {
			t.Fatal("shadow not sorted by probability")
		}
	}
	if sum > 1+1e-9 {
		t.Fatalf("shadow mass = %v > 1", sum)
	}
}

func TestShadowFollowsTrajectory(t *testing.T) {
	net := newNet(t, 2)
	c := newSCC(t, net)
	// 100 km/h east: after 6 intervals of 10 s the mobile has travelled
	// ~1.67 km; with 2 km cells the neighbouring cell (1,0) at ~3.46 km
	// gains mass while the home cell loses it.
	speed := geo.KmhToMps(100)
	home := c.Shadow(geo.Point{}, 0, speed, 0)
	later := c.Shadow(geo.Point{}, 0, speed, 6)
	probOf := func(s []CellProb, h geo.Hex) float64 {
		for _, cp := range s {
			if cp.Hex == h {
				return cp.Prob
			}
		}
		return 0
	}
	east := geo.Hex{Q: 1, R: 0}
	if probOf(later, east) <= probOf(home, east) {
		t.Fatalf("eastern neighbour should gain probability: %v -> %v",
			probOf(home, east), probOf(later, east))
	}
	if probOf(later, geo.Hex{Q: 0, R: 0}) >= probOf(home, geo.Hex{Q: 0, R: 0}) {
		t.Fatal("home cell should lose probability over time")
	}
}

func TestShadowSpreadsWithHorizon(t *testing.T) {
	net := newNet(t, 2)
	c := newSCC(t, net)
	speed := geo.KmhToMps(60)
	if got := len(c.Shadow(geo.Point{}, 0, speed, 6)); got < len(c.Shadow(geo.Point{}, 0, speed, 0)) {
		t.Fatalf("shadow should not shrink with horizon: %d cells at k=6", got)
	}
	// Negative k clamps to 0.
	a := c.Shadow(geo.Point{}, 0, speed, -5)
	b := c.Shadow(geo.Point{}, 0, speed, 0)
	if len(a) != len(b) {
		t.Fatal("negative k should clamp to 0")
	}
}

func TestShadowFarOutsideCoverage(t *testing.T) {
	net := newNet(t, 0) // single cell
	c := newSCC(t, net)
	// A projection landing ~1000 km away: mass must still land somewhere.
	shadow := c.Shadow(geo.Point{X: 1e6, Y: 1e6}, 0, 0, 0)
	if len(shadow) != 1 || shadow[0].Prob != 1 {
		t.Fatalf("collapsed shadow = %+v, want all mass on nearest cell", shadow)
	}
}

func TestExpectedDemandTracksAdmissions(t *testing.T) {
	net := newNet(t, 1)
	c := newSCC(t, net)
	home := geo.Hex{Q: 0, R: 0}
	if got := c.ExpectedDemand(home, 0); got != 0 {
		t.Fatalf("fresh controller demand = %v", got)
	}
	req := sccRequest(t, net, 1, traffic.Video, geo.Point{}, 0, 0)
	c.OnAdmit(req)
	if c.ActiveCalls() != 1 {
		t.Fatal("OnAdmit did not track the call")
	}
	// A stationary video call reserves its full 10 BU at home over the
	// whole horizon: full reservation does not decay.
	for k := 0; k <= c.Config().Horizon; k++ {
		if got := c.ExpectedDemand(home, k); got != 10 {
			t.Fatalf("demand at k=%d = %v, want exactly 10 (stationary video call)", k, got)
		}
	}
	c.OnRelease(1, nil, 0)
	if c.ActiveCalls() != 0 || c.ExpectedDemand(home, 0) != 0 {
		t.Fatal("OnRelease did not clear the shadow")
	}
}

func TestDecideAcceptsOnEmptyNetwork(t *testing.T) {
	net := newNet(t, 1)
	c := newSCC(t, net)
	d, err := c.Decide(sccRequest(t, net, 1, traffic.Video, geo.Point{}, 0, 30))
	if err != nil {
		t.Fatal(err)
	}
	if d != cac.Accept {
		t.Fatal("empty network should accept")
	}
}

func TestDecideEnforcesSurvivabilityThreshold(t *testing.T) {
	net := newNet(t, 0) // single 40 BU cell; tau=0.85 -> 34 BU budget
	c := newSCC(t, net)
	bs, _ := net.At(geo.Hex{Q: 0, R: 0})
	// Admit stationary video calls until the projected budget is used.
	id := 0
	admitted := 0
	for ; id < 10; id++ {
		req := sccRequest(t, net, id, traffic.Video, geo.Point{}, 0, 0)
		d, err := c.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if d != cac.Accept {
			break
		}
		if err := bs.Admit(req.Call); err != nil {
			t.Fatal(err)
		}
		c.OnAdmit(req)
		admitted++
	}
	// 3 videos = 30 BU fit under 34; the 4th (40 BU projected) must not.
	if admitted != 3 {
		t.Fatalf("admitted %d stationary video calls, want 3 under tau=0.85", admitted)
	}
	// A text call (1 BU) still fits under the 34 BU budget.
	req := sccRequest(t, net, 100, traffic.Text, geo.Point{}, 0, 0)
	d, err := c.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if d != cac.Accept {
		t.Fatal("1 BU text should still fit under the survivability budget")
	}
}

func TestDecideReservesForInboundMobiles(t *testing.T) {
	// Mobiles in the neighbour cell heading for the home cell project
	// demand onto it, so a request into the (physically empty) home cell
	// can be rejected: this is SCC denying access to protect expected
	// handoffs.
	net := newNet(t, 1)
	c := newSCC(t, net)
	layout := net.Layout()
	east := geo.Hex{Q: 1, R: 0}
	eastPos := layout.Center(east)
	heading := geo.BearingDeg(eastPos, geo.Point{}) // towards home cell
	// Track several fast video calls converging on the home cell. They are
	// physically in the east cell; their shadows cover home at later k.
	for i := 0; i < 4; i++ {
		req := sccRequest(t, net, 200+i, traffic.Video, eastPos, heading, 120)
		c.OnAdmit(req)
	}
	// A video request in the home cell must now be rejected even though
	// the home station carries zero calls.
	req := sccRequest(t, net, 300, traffic.Video, geo.Point{}, 0, 0)
	d, err := c.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if d != cac.Reject {
		t.Fatal("SCC should reserve home-cell bandwidth for inbound mobiles")
	}
	// Without the inbound shadows the same request is accepted.
	fresh := newSCC(t, net)
	d, err = fresh.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if d != cac.Accept {
		t.Fatal("fresh controller should accept")
	}
}

func TestDecideRespectsPhysicalFit(t *testing.T) {
	net := newNet(t, 0)
	c := newSCC(t, net, func(cfg *Config) { cfg.Threshold = 1 })
	bs, _ := net.At(geo.Hex{Q: 0, R: 0})
	for i := 0; i < 3; i++ {
		if err := bs.Admit(cell.Call{ID: i, Class: traffic.Video, BU: 10}); err != nil {
			t.Fatal(err)
		}
	}
	// 10 free, but only untracked (external) occupancy: physical fit still
	// rejects a video at 10 BU? It fits exactly; an 11th BU would not.
	req := sccRequest(t, net, 50, traffic.Video, geo.Point{}, 0, 0)
	d, err := c.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if d != cac.Accept {
		t.Fatal("exactly-fitting call with tau=1 should be accepted")
	}
	if err := bs.Admit(cell.Call{ID: 90, Class: traffic.Voice, BU: 5}); err != nil {
		t.Fatal(err)
	}
	d, err = c.Decide(sccRequest(t, net, 51, traffic.Video, geo.Point{}, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if d != cac.Reject {
		t.Fatal("call that cannot physically fit must be rejected")
	}
}

func TestDecideValidatesRequest(t *testing.T) {
	c := newSCC(t, newNet(t, 0))
	if _, err := c.Decide(cac.Request{}); err == nil {
		t.Fatal("invalid request should error")
	}
}

func TestUpdateState(t *testing.T) {
	net := newNet(t, 1)
	c := newSCC(t, net)
	req := sccRequest(t, net, 1, traffic.Video, geo.Point{}, 0, 0)
	c.OnAdmit(req)
	home := geo.Hex{Q: 0, R: 0}
	east := geo.Hex{Q: 1, R: 0}
	before := c.ExpectedDemand(east, 0)
	// Move the call to the east cell.
	c.UpdateState(1, net.Layout().Center(east), 0, 0, east)
	after := c.ExpectedDemand(east, 0)
	if after <= before {
		t.Fatalf("east demand should rise after UpdateState: %v -> %v", before, after)
	}
	if c.ExpectedDemand(home, 0) > 0.5 {
		t.Fatal("home demand should collapse after the move")
	}
	// Unknown call IDs are ignored.
	c.UpdateState(99, geo.Point{}, 0, 0, home)
	if c.ActiveCalls() != 1 {
		t.Fatal("UpdateState must not create tracks")
	}
}
