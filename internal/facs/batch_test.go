package facs

import (
	"math/rand"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/traffic"
)

// batchWorkload builds a randomized admission workload over a few
// stations at different occupancy levels, with same-station runs so the
// batch paths' occupancy caching is exercised across cache hits and
// switches.
func batchWorkload(t *testing.T, rng *rand.Rand, n int) []cac.Request {
	return batchWorkloadAt(t, rng, n, []int{0, 12, 33, 40})
}

// occupancyLadder is a station at every occupancy a request can fit,
// so that a workload over them reads most accept-table rows.
var occupancyLadder = func() []int {
	var out []int
	for used := range cell.DefaultCapacityBU {
		out = append(out, used)
	}
	return out
}()

// batchWorkloadAt is batchWorkload over one station per occupancy in
// useds.
func batchWorkloadAt(t *testing.T, rng *rand.Rand, n int, useds []int) []cac.Request {
	t.Helper()
	var stations []*cell.BaseStation
	for i, used := range useds {
		bs, err := cell.NewBaseStation(geo.Hex{Q: i}, geo.Point{}, cell.DefaultCapacityBU)
		if err != nil {
			t.Fatal(err)
		}
		id := 10000 * (i + 1)
		for filled := 0; filled < used; id++ {
			bu := used - filled
			class := traffic.Video
			switch {
			case bu >= 10:
				bu = 10
			case bu >= 5:
				bu, class = 5, traffic.Voice
			default:
				bu, class = 1, traffic.Text
			}
			if err := bs.Admit(cell.Call{ID: id, Class: class, BU: bu}); err != nil {
				t.Fatal(err)
			}
			filled += bu
		}
		stations = append(stations, bs)
	}
	classes := []traffic.Class{traffic.Text, traffic.Voice, traffic.Video}
	reqs := make([]cac.Request, n)
	si := 0
	for i := range reqs {
		// Runs of 1-8 consecutive requests per station.
		if i == 0 || rng.Intn(8) == 0 {
			si = rng.Intn(len(stations))
		}
		class := classes[rng.Intn(len(classes))]
		reqs[i] = cac.Request{
			Call:    cell.Call{ID: i + 1, Class: class, BU: class.BandwidthUnits()},
			Station: stations[si],
			Obs: gps.Observation{
				SpeedKmh:   rng.Float64() * 120,
				AngleDeg:   rng.Float64()*360 - 180,
				DistanceKm: rng.Float64() * 10,
			},
			Handoff: rng.Intn(4) == 0,
		}
	}
	return reqs
}

// TestSystemDecideBatchMatchesSequential pins the exact engine's native
// batch path to its per-request decisions.
func TestSystemDecideBatchMatchesSequential(t *testing.T) {
	sys := Must()
	reqs := batchWorkload(t, rand.New(rand.NewSource(3)), 256)
	batch, err := cac.DecideAll(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		want, err := sys.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != want {
			t.Fatalf("request %d: batch %v, sequential %v", i, batch[i], want)
		}
	}
}

// TestCompiledDecideBatchMatchesSequential pins the compiled fast
// path's batch decisions to both its own sequential decisions and the
// exact System's — the golden contract extended to the batch pipeline.
func TestCompiledDecideBatchMatchesSequential(t *testing.T) {
	cc := goldenCompiled(t)
	reqs := batchWorkload(t, rand.New(rand.NewSource(5)), 512)
	batch, err := cc.DecideBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		want, err := cc.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != want {
			t.Fatalf("request %d: batch %v, compiled sequential %v", i, batch[i], want)
		}
		exact, err := cc.System().Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != exact {
			t.Fatalf("request %d: batch %v, exact system %v", i, batch[i], exact)
		}
	}
}

// TestDecideBatchValidation asserts both native paths abort on the
// first invalid request.
func TestDecideBatchValidation(t *testing.T) {
	sys := Must()
	if _, err := sys.DecideBatch([]cac.Request{{}}); err == nil {
		t.Fatal("System.DecideBatch should reject invalid requests")
	}
	cc := goldenCompiled(t)
	if _, err := cc.DecideBatch([]cac.Request{{}}); err == nil {
		t.Fatal("CompiledController.DecideBatch should reject invalid requests")
	}
}
