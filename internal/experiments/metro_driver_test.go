package experiments

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"facs/internal/cac"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/shard"
)

// streamRecorder wraps a controller and folds every request the
// metropolis driver emits into an FNV-64a digest: call ID, station,
// class, BU, the bits of Est and Obs, and — for arrivals — the hold the
// driver drew for the call. Decisions pass through unchanged.
type streamRecorder struct {
	inner cac.Controller
	run   *metroRun
	buf   []byte
	h     hash.Hash64
	n     int
}

func (s *streamRecorder) Name() string { return s.inner.Name() }

func (s *streamRecorder) Decide(req cac.Request) (cac.Decision, error) {
	return s.inner.Decide(req)
}

// DecideBatchInto sees each chunk exactly as the driver submitted it.
// An arrival chunk's holds sit in the producer's chunk the run is
// deciding; a handoff is a one-request chunk with no hold.
func (s *streamRecorder) DecideBatchInto(reqs []cac.Request, out []cac.Decision) error {
	for i := range reqs {
		hold := -1
		if !reqs[i].Handoff {
			hold = s.run.chunk.holds[i]
		}
		s.record(&reqs[i], hold)
		d, err := s.inner.Decide(reqs[i])
		if err != nil {
			return err
		}
		out[i] = d
	}
	return nil
}

func (s *streamRecorder) record(req *cac.Request, hold int) {
	b := s.buf[:0]
	f := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	i := func(v int) { b = binary.LittleEndian.AppendUint64(b, uint64(int64(v))) }
	hx := req.Station.Hex()
	i(req.Call.ID)
	i(hx.Q)
	i(hx.R)
	i(int(req.Call.Class))
	i(req.Call.BU)
	if req.Handoff {
		b = append(b, 'H')
	} else {
		b = append(b, 'A')
	}
	est, obs := req.Est, req.Obs
	f(est.Pos.X)
	f(est.Pos.Y)
	f(est.HeadingDeg)
	f(est.SpeedKmh)
	f(est.Time)
	f(obs.SpeedKmh)
	f(obs.AngleDeg)
	f(obs.DistanceKm)
	i(hold)
	s.h.Write(b)
	s.buf = b
	s.n++
}

var _ cac.BatchIntoController = (*streamRecorder)(nil)

// metroStreamPin is a frozen driver stream: the digest of every
// emitted request, their number and both streams' draw counts at run
// end. The decision hash pins only outcomes, so an Est or Obs bit that
// moves without flipping a decision shows up here alone.
type metroStreamPin struct {
	digest, requests, callDraws, handoffDraws uint64
}

// TestMetropolisDriverStreamPin freezes the workload the driver
// generates — every request's inputs, every arrival's hold and the RNG
// draw counts — independently of what the controller decides: on
// metroTestConfig and on a city-sized day with 256-request chunks.
func TestMetropolisDriverStreamPin(t *testing.T) {
	city := metroTestConfig(shardGuardFactory)
	city.Rings, city.TargetCalls, city.WavesPerDay, city.Waves, city.MaxBatch, city.Seed = 18, 3000, 96, 96, 256, 7
	cases := []struct {
		name string
		cfg  MetropolisConfig
		want metroStreamPin
	}{
		{"test-config", metroTestConfig(shardGuardFactory), metroStreamPin{0xe0f353c1f51f2b33, 1943, 11760, 4469}},
		{"city", city, metroStreamPin{0xaaae5486d25b4aa4, 39001, 237055, 91590}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := RunMetropolis(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := &streamRecorder{h: fnv.New64a()}
			cfg := c.cfg
			cfg.NewController = func(v shard.View) (cac.Controller, error) {
				inner, err := shardGuardFactory(v)
				rec.inner = inner
				return rec, err
			}
			r, err := newMetroRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec.run = r
			for r.wave < r.cfg.Waves {
				if err := r.runWave(); err != nil {
					t.Fatal(err)
				}
			}
			res, err := r.finish()
			if err != nil {
				t.Fatal(err)
			}
			if res.DecisionHash != plain.DecisionHash {
				t.Fatalf("recording wrapper changed decisions: hash %#x, want %#x", res.DecisionHash, plain.DecisionHash)
			}
			if want := res.Requested + res.Handoffs; rec.n != want {
				t.Fatalf("recorded %d requests, driver emitted %d", rec.n, want)
			}
			got := metroStreamPin{rec.h.Sum64(), uint64(rec.n), r.callSrc.Draws(), r.handoffSrc.Draws()}
			if got != c.want {
				t.Errorf("driver stream = %#x, want %#x", got, c.want)
			}
		})
	}
}

// cityWorkload builds the default 18-ring (1027-cell) city's workload.
func cityWorkload(t testing.TB) *metroWorkload {
	t.Helper()
	cfg := MetropolisConfig{NewController: shardGuardFactory}.withDefaults()
	net, err := newMetroNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return newMetroWorkload(cfg, net)
}

// cellBinarySearch is sampleCell's reference: the first index whose
// cumulative weight exceeds x, or the last index when none does.
func cellBinarySearch(cum []float64, x float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestSampleCellMatchesBinarySearch checks the guided cell lookup
// against the binary search on every wave of the city's day: at every
// cumulative weight and one ulp either side, at 0, at the total (which
// Float64()*total can round up to) and its predecessor, and at 10^5
// draws per wave.
func TestSampleCellMatchesBinarySearch(t *testing.T) {
	w := cityWorkload(t)
	rng := rand.New(rand.NewSource(1))
	draws := 100_000
	if testing.Short() {
		draws = 10_000
	}
	var probes []float64
	for wave := 0; wave < w.cfg.WavesPerDay; wave++ {
		w.ensureCellCum(wave)
		total := w.cellCum[len(w.cellCum)-1]
		probes = append(probes[:0], 0, total, math.Nextafter(total, 0))
		for _, c := range w.cellCum {
			probes = append(probes, c, math.Nextafter(c, 0))
			if c < total {
				probes = append(probes, math.Nextafter(c, total))
			}
		}
		for i := 0; i < draws; i++ {
			probes = append(probes, rng.Float64()*total)
		}
		for _, x := range probes {
			if got, want := w.cellAt(x), cellBinarySearch(w.cellCum, x); got != want {
				t.Fatalf("wave %d: cellAt(%v) = %d, binary search %d", wave, x, got, want)
			}
		}
	}
}

// TestHandoffTablesMatchNeighbors rebuilds every station's handoff
// candidates through Hex.Neighbors and a hex-to-index map, and checks
// the tables' targets, order and proximity gradients bit for bit, edge
// stations with fewer than six neighbours included.
func TestHandoffTablesMatchNeighbors(t *testing.T) {
	for _, rings := range []int{1, 3, 18} {
		cfg := metroTestConfig(shardGuardFactory)
		cfg.Rings = rings
		net, err := newMetroNet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := newMetroWorkload(cfg.withDefaults(), net)
		idx := make(map[geo.Hex]int, len(w.stations))
		for i, bs := range w.stations {
			idx[bs.Hex()] = i
		}
		edge := 0
		for si, bs := range w.stations {
			nb := w.handoff[si]
			n := 0
			for _, nh := range bs.Hex().Neighbors() {
				ti, ok := idx[nh]
				if !ok {
					continue
				}
				if n >= nb.n || int(nb.target[n]) != ti {
					t.Fatalf("rings %d station %d: candidate %d is not station %d", rings, si, n, ti)
				}
				d := w.prox[ti] - w.prox[si]
				if math.Float64bits(nb.dprox[n]) != math.Float64bits(d) {
					t.Fatalf("rings %d station %d -> %d: gradient %v, want %v", rings, si, ti, nb.dprox[n], d)
				}
				n++
			}
			if n != nb.n {
				t.Fatalf("rings %d station %d: %d candidates, want %d", rings, si, nb.n, n)
			}
			if n < 6 {
				edge++
			}
		}
		if edge != 6*rings {
			t.Fatalf("rings %d: %d edge stations, want %d", rings, edge, 6*rings)
		}
	}
}

// BenchmarkMetroDriver times the driver's workload generation without
// an engine: one peak wave of the city's arrivals (cell, class,
// estimate, observation and hold, with the wave's cell-choice rebuild)
// and a handoff round over those calls (round draw, target and
// estimate). It reports ns per arrival; the loop allocates nothing.
func BenchmarkMetroDriver(b *testing.B) {
	w := cityWorkload(b)
	wave := w.peakWave()
	n := w.arrivals[wave]
	now := float64(wave) * metroWaveSec(w.cfg.WavesPerDay)
	steer := w.handoffSteer(wave)
	cells := make([]int, n)
	rng := rand.New(rand.NewSource(1))
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		w.cellCumOK = false // every wave of a day rebuilds the weights
		w.ensureCellCum(wave)
		for i := range cells {
			si := w.sampleCell(rng)
			class := w.sampleClass(rng)
			est := w.sampleEstimate(rng, si, now)
			obs := gps.Observe(est, w.stations[si].Pos())
			hold := metroHoldWavesMin + rng.Intn(metroHoldWavesMax-metroHoldWavesMin+1)
			sink += obs.AngleDeg + obs.DistanceKm + float64(class.BandwidthUnits()+hold)
			cells[i] = si
		}
		for _, si := range cells {
			if rng.Float64() >= metroHandoffFraction {
				continue
			}
			if ti, ok := w.sampleHandoffTarget(rng, si, steer); ok {
				est := w.sampleEstimate(rng, ti, now)
				sink += gps.Observe(est, w.stations[ti].Pos()).AngleDeg
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/arrival")
	if math.IsNaN(sink) {
		b.Fatal("NaN observation")
	}
}
