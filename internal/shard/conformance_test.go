package shard

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/gps"
	"facs/internal/serve"
	"facs/internal/traffic"
)

// errConformDecide is the decision error the conformance script
// provokes.
var errConformDecide = errors.New("conform: decision failed")

// conformEvent is one controller interaction; station is nil for
// ticks.
type conformEvent struct {
	station *cell.BaseStation
	what    string
}

// conformController records every interaction in call order. Decide
// rejects IDs divisible by 3, fails ID 7 and accepts the rest, so
// outcomes depend on the request alone.
type conformController struct {
	events []conformEvent
}

func (c *conformController) add(bs *cell.BaseStation, format string, args ...any) {
	c.events = append(c.events, conformEvent{station: bs, what: fmt.Sprintf(format, args...)})
}

func (c *conformController) Name() string { return "conform" }

func (c *conformController) Decide(req cac.Request) (cac.Decision, error) {
	c.add(req.Station, "decide:%d", req.Call.ID)
	switch {
	case req.Call.ID == 7:
		return cac.Reject, errConformDecide
	case req.Call.ID%3 == 0:
		return cac.Reject, nil
	}
	return cac.Accept, nil
}

func (c *conformController) OnAdmit(req cac.Request) { c.add(req.Station, "admit:%d", req.Call.ID) }

func (c *conformController) OnRelease(callID int, bs *cell.BaseStation, _ float64) {
	c.add(bs, "release:%d", callID)
}

func (c *conformController) OnTick(now float64) { c.add(nil, "tick:%g", now) }

// conformFront is the surface the conformance script drives, bound to
// a serve.Service or a shard.Engine.
type conformFront struct {
	submit  func(cac.Request) <-chan serve.Response
	wave    func([]cac.Request, []serve.Response) error
	tick    func(float64) error
	release func(int, *cell.BaseStation, float64) error
	flush   func() error
}

// runConformScript drives one op script against a fresh front end on
// net: singles, a two-chunk wave whose first chunk overflows a
// station's bandwidth, a decision error, a tick, releases of a live
// and of an unknown call, Flush, and a single after them. It returns every response in script order.
func runConformScript(t *testing.T, net *cell.Network, f conformFront) []serve.Response {
	t.Helper()
	a, b := net.Stations()[0], net.Stations()[1]
	req := func(id int, bs *cell.BaseStation) cac.Request {
		return cac.Request{
			Call:    cell.Call{ID: id, Class: traffic.Video, BU: traffic.Video.BandwidthUnits()},
			Station: bs,
			Obs:     gps.Observation{SpeedKmh: 20, DistanceKm: 1},
			Now:     float64(id),
		}
	}
	var out []serve.Response
	out = append(out, <-f.submit(req(1, a)), <-f.submit(req(2, b)))
	// MaxBatch is 8: the first chunk (10..17) lands on a, whose
	// remaining bandwidth commits only some of its accepts; the second
	// (18..21) spans both stations.
	var wave []cac.Request
	for id := 10; id < 18; id++ {
		wave = append(wave, req(id, a))
	}
	wave = append(wave, req(18, a), req(19, b), req(20, a), req(21, b))
	resp := make([]serve.Response, len(wave))
	if err := f.wave(wave, resp); err != nil {
		t.Fatal(err)
	}
	out = append(out, resp...)
	out = append(out, <-f.submit(req(7, b)))
	for _, step := range []error{
		f.tick(100),
		f.release(10, a, 101),
		f.release(999, b, 102),
		f.flush(),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	return append(out, <-f.submit(req(22, a)))
}

// TestServiceAndEngineConform runs one op script through serve.Service
// and through shard.Engine at 1 and 2 shards and requires the same
// responses, the same controller event order and the same counters.
// Each shard controller must see exactly the service's events for the
// stations it owns, plus every tick (a tick reaches every shard). For
// the same reason an n-shard engine counts each tick n times, as a tick
// and as an op.
func TestServiceAndEngineConform(t *testing.T) {
	const maxBatch = 8
	netS := testNetwork(t, 1)
	ctrlS := &conformController{}
	svc, err := serve.New(serve.Config{Controller: ctrlS, MaxBatch: maxBatch, MaxDelay: -1, Commit: true})
	if err != nil {
		t.Fatal(err)
	}
	want := runConformScript(t, netS, conformFront{
		submit: svc.SubmitAsync, wave: svc.SubmitAllInto, tick: svc.Tick,
		release: svc.Release, flush: svc.Flush,
	})
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	wantSt := svc.Stats()
	if wantSt.CommitErrs == 0 || wantSt.OpErrs != 1 || wantSt.Ticks != 1 {
		t.Fatalf("script did not exercise overflow, a failed release and a tick: %+v", wantSt)
	}

	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			net := testNetwork(t, 1)
			var ctrls []*conformController
			eng, err := New(Config{
				Network: net, Shards: n, MaxBatch: maxBatch, MaxDelay: -1, Commit: true,
				NewController: func(View) (cac.Controller, error) {
					c := &conformController{}
					ctrls = append(ctrls, c)
					return c, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			got := runConformScript(t, net, conformFront{
				submit: eng.SubmitAsync, wave: eng.SubmitWaveTo, tick: eng.Tick,
				release: eng.Release, flush: eng.Flush,
			})
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			if len(got) != len(want) {
				t.Fatalf("%d responses, service gave %d", len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Decision != w.Decision || g.Committed != w.Committed || fmt.Sprint(g.Err) != fmt.Sprint(w.Err) {
					t.Errorf("response %d: engine %+v, service %+v", i, g, w)
				}
			}

			// The service's events, projected onto each shard (both
			// networks share one layout, so a hex names the same cell).
			for s, c := range ctrls {
				var proj []string
				for _, ev := range ctrlS.events {
					owned := ev.station == nil
					if ev.station != nil {
						sh, _ := shardOf(eng, ev.station.Hex())
						owned = sh == s
					}
					if owned {
						proj = append(proj, ev.what)
					}
				}
				var seen []string
				for _, ev := range c.events {
					seen = append(seen, ev.what)
				}
				if !reflect.DeepEqual(seen, proj) {
					t.Errorf("shard %d events %v, want %v", s, seen, proj)
				}
			}

			st := eng.Stats().Total
			extra := int64(n-1) * wantSt.Ticks
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"Decided", st.Decided, wantSt.Decided},
				{"Accepted", st.Accepted, wantSt.Accepted},
				{"Rejected", st.Rejected, wantSt.Rejected},
				{"Committed", st.Committed, wantSt.Committed},
				{"CommitErrs", st.CommitErrs, wantSt.CommitErrs},
				{"Ops", st.Ops, wantSt.Ops + extra},
				{"Ticks", st.Ticks, wantSt.Ticks + extra},
				{"OpErrs", st.OpErrs, wantSt.OpErrs},
			} {
				if c.got != c.want {
					t.Errorf("Stats.%s = %d, want %d", c.name, c.got, c.want)
				}
			}
		})
	}
}
