package facs_test

// Benchmark harness: one benchmark per paper artifact (Tables 1-2,
// Figs. 7-10) plus the ablation benches enumerated in
// internal/experiments/ablations.go and micro-benchmarks of the hot
// paths. Figure benches run a reduced-size
// replica of the experiment per iteration and report the measured
// acceptance percentage via b.ReportMetric, so `go test -bench .` both
// regenerates the artifact shapes and times them.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"

	"facs"
	ifacs "facs/internal/facs"
	ifuzzy "facs/internal/fuzzy"
	igps "facs/internal/gps"
)

// BenchmarkTable1FRB1 measures compiling the prediction controller with
// the paper's Table 1 (42 rules); the table itself is verified by unit
// tests.
func BenchmarkTable1FRB1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ifacs.NewFLC1(ifacs.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2FRB2 measures compiling the admission controller with
// the paper's Table 2 (27 rules).
func BenchmarkTable2FRB2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ifacs.NewFLC2(ifacs.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFigure runs one reduced figure per iteration and reports the mean
// acceptance of the first and last series, so that shape regressions are
// visible in benchmark output.
func benchFigure(b *testing.B, build func(facs.FigureConfig) (facs.Figure, error)) {
	b.Helper()
	fc := facs.FigureConfig{LoadPoints: []int{60}, Seeds: []int64{1}}
	var fig facs.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = build(fc)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(fig.Series) > 0 {
		first := fig.Series[0]
		last := fig.Series[len(fig.Series)-1]
		b.ReportMetric(first.MeanY(), "first%")
		b.ReportMetric(last.MeanY(), "last%")
	}
}

// BenchmarkFigure7 regenerates a reduced paper Fig. 7 (speed series).
func BenchmarkFigure7(b *testing.B) { benchFigure(b, facs.Figure7) }

// BenchmarkFigure8 regenerates a reduced paper Fig. 8 (angle series).
func BenchmarkFigure8(b *testing.B) { benchFigure(b, facs.Figure8) }

// BenchmarkFigure9 regenerates a reduced paper Fig. 9 (distance series).
func BenchmarkFigure9(b *testing.B) { benchFigure(b, facs.Figure9) }

// BenchmarkFigure10 regenerates a reduced paper Fig. 10 (FACS vs SCC).
func BenchmarkFigure10(b *testing.B) { benchFigure(b, facs.Figure10) }

// BenchmarkAblationDefuzzifier (A1) times a full FACS evaluation under
// each defuzzifier, quantifying the real-time cost of the centroid method
// against the height fast path.
func BenchmarkAblationDefuzzifier(b *testing.B) {
	methods := []struct {
		name string
		mk   func() ifuzzy.Defuzzifier
	}{
		{"centroid", func() ifuzzy.Defuzzifier { return ifuzzy.Centroid{} }},
		{"weighted-average", func() ifuzzy.Defuzzifier { return ifuzzy.NewWeightedAverage() }},
		{"bisector", func() ifuzzy.Defuzzifier { return ifuzzy.Bisector{} }},
		{"mean-of-maxima", func() ifuzzy.Defuzzifier { return ifuzzy.MeanOfMaxima{} }},
	}
	obs := facs.Observation{SpeedKmh: 45, AngleDeg: 20, DistanceKm: 4}
	for _, m := range methods {
		m := m
		b.Run(m.name, func(b *testing.B) {
			system, err := facs.NewSystem(ifacs.WithDefuzzifier(m.mk))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := system.Evaluate(obs, 5, 20, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationThreshold (A2) times one single-cell run per accept
// threshold and reports the acceptance level it produces.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, th := range []float64{0, 0.25, 0.5} {
		th := th
		b.Run(thresholdName(th), func(b *testing.B) {
			system, err := facs.NewSystem(facs.WithAcceptThreshold(th))
			if err != nil {
				b.Fatal(err)
			}
			var last facs.SingleCellResult
			for i := 0; i < b.N; i++ {
				last, err = facs.RunSingleCell(facs.SingleCellConfig{
					Controller:  system,
					NumRequests: 60,
					Seed:        1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.AcceptedPct(), "accept%")
		})
	}
}

func thresholdName(th float64) string {
	switch {
	case th == 0:
		return "th=0.00"
	case th == 0.25:
		return "th=0.25"
	default:
		return "th=0.50"
	}
}

// BenchmarkAblationSCC (A3) times one multi-cell SCC run per horizon,
// showing how the projection depth scales.
func BenchmarkAblationSCC(b *testing.B) {
	for _, horizon := range []int{2, 6, 12} {
		horizon := horizon
		b.Run(horizonName(horizon), func(b *testing.B) {
			factory := func(net *facs.Network) (facs.Controller, error) {
				return facs.NewSCC(facs.SCCConfig{
					Network:                net,
					Horizon:                horizon,
					RequireClusterCoverage: true,
				})
			}
			var last facs.MultiCellResult
			var err error
			for i := 0; i < b.N; i++ {
				last, err = facs.RunMultiCell(facs.MultiCellConfig{
					NewController: factory,
					NumRequests:   60,
					Seed:          1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.AcceptedPct(), "accept%")
		})
	}
}

func horizonName(h int) string {
	switch h {
	case 2:
		return "K=2"
	case 6:
		return "K=6"
	default:
		return "K=12"
	}
}

// BenchmarkAblationBaselines (A4) times one multi-cell run per classical
// scheme on the Fig. 10 workload.
func BenchmarkAblationBaselines(b *testing.B) {
	schemes := []struct {
		name    string
		factory func(*facs.Network) (facs.Controller, error)
	}{
		{"facs", facs.FACSFactory()},
		{"scc", facs.SCCFactory()},
		{"complete-sharing", func(*facs.Network) (facs.Controller, error) {
			return facs.CompleteSharing{}, nil
		}},
		{"guard-channel", func(*facs.Network) (facs.Controller, error) {
			return facs.NewGuardChannel(8)
		}},
	}
	for _, sc := range schemes {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			var last facs.MultiCellResult
			var err error
			for i := 0; i < b.N; i++ {
				last, err = facs.RunMultiCell(facs.MultiCellConfig{
					NewController: sc.factory,
					NumRequests:   60,
					Seed:          1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.AcceptedPct(), "accept%")
			b.ReportMetric(last.DropPct(), "drop%")
		})
	}
}

// BenchmarkAblationGPSNoise (A5) times one single-cell run per GPS noise
// level, reporting the acceptance it produces for walking users.
func BenchmarkAblationGPSNoise(b *testing.B) {
	for _, sc := range []struct {
		name  string
		noise float64
	}{
		{"no-noise", -1},
		{"sigma=5m", 5},
		{"sigma=30m", 30},
	} {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			var last facs.SingleCellResult
			var err error
			for i := 0; i < b.N; i++ {
				last, err = facs.RunSingleCell(facs.SingleCellConfig{
					Controller:  facs.MustSystem(),
					NumRequests: 60,
					SpeedKmh:    facs.Pin(10),
					GPSNoiseM:   sc.noise,
					Seed:        1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.AcceptedPct(), "accept%")
		})
	}
}

// --- micro benchmarks of the hot paths ---

// BenchmarkFLC1Evaluate times one prediction inference (42 rules,
// centroid defuzzification).
func BenchmarkFLC1Evaluate(b *testing.B) {
	eng, err := ifacs.NewFLC1(ifacs.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateVec(45, 20, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFLC2Evaluate times one admission inference (27 rules).
func BenchmarkFLC2Evaluate(b *testing.B) {
	eng, err := ifacs.NewFLC2(ifacs.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateVec(0.7, 5, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFACSEvaluate times the full two-stage decision.
func BenchmarkFACSEvaluate(b *testing.B) {
	system := facs.MustSystem()
	obs := facs.Observation{SpeedKmh: 45, AngleDeg: 20, DistanceKm: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := system.Evaluate(obs, 5, 20, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- compiled fast-path benchmarks ---

// compiledBench returns the shared compiled default FACS, so the
// first-touch enclosures are mostly paid before per-op timings.
func compiledBench(b *testing.B) *facs.CompiledSystem {
	b.Helper()
	cc, err := facs.DefaultCompiledSystem()
	if err != nil {
		b.Fatal(err)
	}
	return cc
}

// BenchmarkCompiledFLC1Evaluate times one prediction lookup on the
// compiled surface (versus BenchmarkFLC1Evaluate's full inference).
func BenchmarkCompiledFLC1Evaluate(b *testing.B) {
	surf := compiledBench(b).FLC1Surface()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surf.EvaluateVec(45, 20, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledFLC2Evaluate times one admission lookup on the
// compiled surface (versus BenchmarkFLC2Evaluate).
func BenchmarkCompiledFLC2Evaluate(b *testing.B) {
	surf := compiledBench(b).FLC2Surface()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surf.EvaluateVec(0.7, 5, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// compiledDecideBatch builds the seeded batch BenchmarkCompiledDecideBatch
// times and TestCompiledDecideBatchSettlement pins: 512 new calls and
// handoffs (one in three) over a 19-cell network of 40 BU stations at
// random occupancy.
func compiledDecideBatch(tb testing.TB) []facs.AdmissionRequest {
	tb.Helper()
	const batchSize = 512
	net, err := facs.NewNetwork(facs.NetworkConfig{Rings: 2})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	id := 1
	for _, bs := range net.Stations() {
		for target := rng.Intn(bs.Capacity() - 3); bs.Used() < target; id++ {
			if err := bs.Admit(facs.Call{ID: id, Class: facs.Text, BU: 1}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	classes := []facs.Class{facs.Text, facs.Voice, facs.Video}
	reqs := make([]facs.AdmissionRequest, 0, batchSize)
	for len(reqs) < batchSize {
		pos := facs.Point{
			X: (2*rng.Float64() - 1) * 7000,
			Y: (2*rng.Float64() - 1) * 7000,
		}
		bs, err := net.StationAt(pos)
		if err != nil {
			continue
		}
		class := classes[rng.Intn(len(classes))]
		est := igps.Estimate{
			Pos:        pos,
			HeadingDeg: rng.Float64()*360 - 180,
			SpeedKmh:   rng.Float64() * 120,
		}
		reqs = append(reqs, facs.AdmissionRequest{
			Call:    facs.Call{ID: id, Class: class, BU: class.BandwidthUnits()},
			Station: bs,
			Obs:     igps.Observe(est, bs.Pos()),
			Est:     est,
			Handoff: rng.Intn(3) == 0,
		})
		id++
	}
	return reqs
}

// BenchmarkCompiledDecideBatch times the compiled decision path the
// city-facs workload runs: DecideBatchInto on the seeded batch of
// compiledDecideBatch. One op is the whole batch; the metrics report
// the cost per decision and, of the decisions the station can carry,
// the share their whole FLC1 cell settled (cell%)
// and the share that fell back to the exact engines (fallback%).
func BenchmarkCompiledDecideBatch(b *testing.B) {
	cc := compiledBench(b)
	reqs := compiledDecideBatch(b)
	out := make([]facs.Decision, len(reqs))
	f0, e0 := cc.Stats()
	c0 := cc.CellSettled()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cc.DecideBatchInto(reqs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/decision")
	f1, e1 := cc.Stats()
	if total := (f1 - f0) + (e1 - e0); total > 0 {
		b.ReportMetric(100*float64(cc.CellSettled()-c0)/float64(total), "cell%")
		b.ReportMetric(100*float64(e1-e0)/float64(total), "fallback%")
	}
}

// BenchmarkCompiledSurfaceBuild times the two interpolation surfaces a
// default compiled FACS compiles on request, FLC1Surface and then
// FLC2Surface, on a fresh controller each time. No decision reads
// them; constructing the controller (untimed) compiles neither.
func BenchmarkCompiledSurfaceBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cc, err := facs.NewCompiledSystem(0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		cc.FLC1Surface()
		cc.FLC2Surface()
	}
}

// BenchmarkCompiledSingleCellWorkers runs the Fig. 7 single-cell
// scenario over 8 replication seeds on 1 worker versus one per CPU,
// with the compiled controller.
func BenchmarkCompiledSingleCellWorkers(b *testing.B) {
	cc := compiledBench(b)
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, workers := range []int{1, facs.DefaultWorkers()} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := facs.RunSingleCellSeeds(facs.SingleCellConfig{
					Controller:  cc,
					NumRequests: 60,
				}, seeds, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sccObserver is the shared OnAdmit surface of the recompute SCC and
// the demand ledger, so benches can load either implementation.
type sccObserver interface {
	facs.Controller
	OnAdmit(req facs.AdmissionRequest)
}

// sccScatter admits n tracked calls with deterministic pseudo-random
// positions and kinematics scattered across the network, so projected
// demand spreads over many (cell, interval) entries instead of
// saturating one cell.
func sccScatter(b *testing.B, net *facs.Network, ctrl sccObserver, n int) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	classes := []facs.Class{facs.Text, facs.Voice, facs.Video}
	for id := 0; id < n; {
		pos := facs.Point{
			X: (2*rng.Float64() - 1) * 7000,
			Y: (2*rng.Float64() - 1) * 7000,
		}
		bs, err := net.StationAt(pos)
		if err != nil {
			continue
		}
		class := classes[id%len(classes)]
		ctrl.OnAdmit(facs.AdmissionRequest{
			Call:    facs.Call{ID: id, Class: class, BU: class.BandwidthUnits()},
			Station: bs,
			Est: igps.Estimate{
				Pos:        pos,
				HeadingDeg: rng.Float64()*360 - 180,
				SpeedKmh:   rng.Float64() * 120,
			},
		})
		id++
	}
}

// BenchmarkSCCDecide times one shadow-cluster admission decision at
// 100 / 1,000 / 10,000 tracked calls, on the recompute-on-query oracle
// and on the incremental demand ledger. The acceptance bar for the
// ledger refactor is a >= 10x throughput advantage at 1,000 active
// calls; the ledger's per-decision cost is flat in the number of
// tracked calls, so the measured gap widens linearly with load.
// The ledger-boundary cases time the ledger where every interval lands
// exactly on the survivability limit (see sccBoundary): a decision
// alone, and a decision committed with OnAdmit (which adopts the
// decision's footprint) and released again. Their aggregates are exact
// whole-BU sums compared with an integer limit, so the cost stays flat
// in the tracked calls there too.
func BenchmarkSCCDecide(b *testing.B) {
	impls := []struct {
		name  string
		build func(net *facs.Network) (sccObserver, error)
	}{
		{"recompute", func(net *facs.Network) (sccObserver, error) {
			return facs.NewSCC(facs.SCCConfig{Network: net})
		}},
		{"ledger", func(net *facs.Network) (sccObserver, error) {
			return facs.NewSCCLedger(facs.SCCConfig{Network: net})
		}},
	}
	for _, active := range []int{100, 1000, 10000} {
		for _, impl := range impls {
			impl := impl
			b.Run(fmt.Sprintf("%s/active=%d", impl.name, active), func(b *testing.B) {
				net, err := facs.NewNetwork(facs.NetworkConfig{Rings: 2})
				if err != nil {
					b.Fatal(err)
				}
				ctrl, err := impl.build(net)
				if err != nil {
					b.Fatal(err)
				}
				sccScatter(b, net, ctrl, active)
				bs, err := net.StationAt(facs.Point{})
				if err != nil {
					b.Fatal(err)
				}
				req := facs.AdmissionRequest{
					Call:    facs.Call{ID: 999999, Class: facs.Voice, BU: 5},
					Station: bs,
					Est:     igps.Estimate{SpeedKmh: 60, HeadingDeg: 30},
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ctrl.Decide(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("ledger-boundary/active=%d", active), func(b *testing.B) {
			ledger, req := sccBoundary(b, active)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ledger.Decide(req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ledger-boundary-commit/active=%d", active), func(b *testing.B) {
			ledger, req := sccBoundary(b, active)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := ledger.Decide(req)
				if err != nil {
					b.Fatal(err)
				}
				if !d.Accepted() {
					b.Fatal("boundary request rejected; the commit is not exercised")
				}
				ledger.OnAdmit(req)
				ledger.OnRelease(req.Call.ID, req.Station, 0)
			}
		})
	}
}

// sccBoundary builds the survivability limit's tie case: a ledger on a
// 127-cell network at the paper's 40 BU, whose centre cell carries
// exactly 29 BU at every interval (stationary calls at the centre), so
// a stationary voice request lands each interval's aggregate exactly on
// the 34 BU limit. The other `active` calls are scattered at least
// 8 km from the centre, out of its shadow, so they leave the aggregate
// on the limit.
func sccBoundary(b *testing.B, active int) (*facs.SCCLedger, facs.AdmissionRequest) {
	b.Helper()
	net, err := facs.NewNetwork(facs.NetworkConfig{Rings: 6})
	if err != nil {
		b.Fatal(err)
	}
	ledger, err := facs.NewSCCLedger(facs.SCCConfig{Network: net})
	if err != nil {
		b.Fatal(err)
	}
	centre, err := net.StationAt(facs.Point{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	classes := []facs.Class{facs.Text, facs.Voice, facs.Video}
	for id := 0; id < active; {
		pos := facs.Point{
			X: (2*rng.Float64() - 1) * 20000,
			Y: (2*rng.Float64() - 1) * 20000,
		}
		if pos.DistanceTo(facs.Point{}) < 8000 {
			continue
		}
		bs, err := net.StationAt(pos)
		if err != nil {
			continue
		}
		class := classes[id%len(classes)]
		ledger.OnAdmit(facs.AdmissionRequest{
			Call:    facs.Call{ID: id, Class: class, BU: class.BandwidthUnits()},
			Station: bs,
			Est:     igps.Estimate{Pos: pos, HeadingDeg: rng.Float64()*360 - 180, SpeedKmh: rng.Float64() * 120},
		})
		id++
	}
	// 2 video + 1 voice + 4 text = 29 BU, stationary at the centre.
	top := []facs.Class{facs.Video, facs.Video, facs.Voice, facs.Text, facs.Text, facs.Text, facs.Text}
	for i, class := range top {
		ledger.OnAdmit(facs.AdmissionRequest{
			Call:    facs.Call{ID: active + i, Class: class, BU: class.BandwidthUnits()},
			Station: centre,
		})
	}
	for k := 0; k <= ledger.Config().Horizon; k++ {
		if got := ledger.ProjectedDemand(centre.Hex(), k); got != 29 {
			b.Fatalf("centre demand at k=%d is %v BU, want 29", k, got)
		}
	}
	req := facs.AdmissionRequest{
		Call:    facs.Call{ID: 999999, Class: facs.Voice, BU: facs.Voice.BandwidthUnits()},
		Station: centre,
	}
	return ledger, req
}

// envInt reads an integer env override for bench scaling.
func envInt(name string, fallback int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return fallback
}

// metroBenchRun is one BenchmarkMetropolis sub-result as persisted to
// BENCH_metropolis.json.
type metroBenchRun struct {
	Name            string  `json:"name"`
	Controller      string  `json:"controller"`
	Mode            string  `json:"mode"`
	Shards          int     `json:"shards"`
	Requested       int     `json:"requested"`
	Accepted        int     `json:"accepted"`
	Handoffs        int     `json:"handoffs"`
	HandoffDropped  int     `json:"handoff_dropped"`
	CrossShard      int     `json:"cross_shard"`
	PeakConcurrent  int     `json:"peak_concurrent"`
	Decisions       int     `json:"decisions"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	BytesPerCall    float64 `json:"bytes_per_call"`
	DecisionHash    string  `json:"decision_hash"`
	ElapsedSec      float64 `json:"elapsed_sec"`
}

// BenchmarkMetropolis drives the metropolis-scale diurnal scenario
// through the batch and sharded decision paths and reports sustained
// decision throughput plus live heap bytes per concurrent call at the
// population peak. Scale is env-overridable: FACS_METRO_RINGS (hex
// rings; 18 = 1027 cells) and FACS_METRO_TARGET (peak concurrent-call
// target) raise the defaults to city scale, and FACS_METRO_JSON=<path>
// persists the sub-results (this is how the committed
// BENCH_metropolis.json is produced):
//
//	FACS_METRO_RINGS=18 FACS_METRO_TARGET=550000 \
//	FACS_METRO_JSON=$PWD/BENCH_metropolis.json \
//	go test -run '^$' -bench BenchmarkMetropolis -benchtime 1x .
func BenchmarkMetropolis(b *testing.B) {
	rings := envInt("FACS_METRO_RINGS", 6)
	target := envInt("FACS_METRO_TARGET", 20000)
	shards := envInt("FACS_METRO_SHARDS", 4)
	guard := func(facs.ShardView) (facs.Controller, error) { return facs.NewGuardChannel(8) }
	cases := []struct {
		name    string
		factory func(facs.ShardView) (facs.Controller, error)
		mode    facs.MetropolisMode
		shards  int
	}{
		{"guard/batch", guard, facs.MetroBatch, 1},
		{"guard/sharded", guard, facs.MetroSharded, shards},
		{"facs-compiled/sharded", func(facs.ShardView) (facs.Controller, error) {
			return facs.DefaultCompiledSystem()
		}, facs.MetroSharded, shards},
	}
	var runs []metroBenchRun
	var cells, capacityBU, waves int
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var last facs.MetropolisResult
			for i := 0; i < b.N; i++ {
				res, err := facs.RunMetropolis(facs.MetropolisConfig{
					NewController: tc.factory,
					Mode:          tc.mode,
					Shards:        tc.shards,
					Rings:         rings,
					TargetCalls:   target,
					Seed:          1,
					MeasureMem:    true,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.DecisionsPerSec(), "decisions/s")
			b.ReportMetric(last.BytesPerCall, "bytes/call")
			b.ReportMetric(float64(last.PeakConcurrent), "peak-calls")
			cells, capacityBU, waves = last.Cells, last.CapacityBU, last.Waves
			runs = append(runs, metroBenchRun{
				Name:            tc.name,
				Controller:      last.ControllerName,
				Mode:            last.Mode.String(),
				Shards:          last.Shards,
				Requested:       last.Requested,
				Accepted:        last.Accepted,
				Handoffs:        last.Handoffs,
				HandoffDropped:  last.HandoffDropped,
				CrossShard:      last.CrossShard,
				PeakConcurrent:  last.PeakConcurrent,
				Decisions:       last.Decisions(),
				DecisionsPerSec: last.DecisionsPerSec(),
				BytesPerCall:    last.BytesPerCall,
				DecisionHash:    fmt.Sprintf("%#016x", last.DecisionHash),
				ElapsedSec:      last.Elapsed.Seconds(),
			})
		})
	}
	path := os.Getenv("FACS_METRO_JSON")
	if path == "" || len(runs) == 0 {
		return
	}
	doc := struct {
		Scenario    string          `json:"scenario"`
		Rings       int             `json:"rings"`
		Cells       int             `json:"cells"`
		CapacityBU  int             `json:"capacity_bu"`
		TargetCalls int             `json:"target_calls"`
		Waves       int             `json:"waves"`
		GOOS        string          `json:"goos"`
		GOARCH      string          `json:"goarch"`
		CPUs        int             `json:"cpus"`
		Runs        []metroBenchRun `json:"runs"`
	}{
		Scenario: "metropolis", Rings: rings, Cells: cells,
		CapacityBU: capacityBU, TargetCalls: target, Waves: waves,
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(),
		Runs: runs,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRebalance compares the static blocks partition against
// elastic hot-cell rebalancing (an epoch planned at every tick
// barrier) on the diurnal hotspot metropolis, at shard counts 1, 2, 4
// and 8. Decisions are byte-identical between the two variants for the
// cell-local guard controller — the benchmark isolates the cost (plan
// + migrate inside the tick barrier) and the reported migration
// volume. Scale with FACS_REBAL_RINGS / FACS_REBAL_TARGET.
func BenchmarkRebalance(b *testing.B) {
	rings := envInt("FACS_REBAL_RINGS", 4)
	target := envInt("FACS_REBAL_TARGET", 8000)
	guard := func(facs.ShardView) (facs.Controller, error) { return facs.NewGuardChannel(8) }
	for _, shards := range []int{1, 2, 4, 8} {
		for _, elastic := range []bool{false, true} {
			variant := "static"
			if elastic {
				variant = "elastic"
			}
			b.Run(fmt.Sprintf("shards-%d/%s", shards, variant), func(b *testing.B) {
				cfg := facs.MetropolisConfig{
					NewController: guard,
					Mode:          facs.MetroSharded,
					Shards:        shards,
					Rings:         rings,
					TargetCalls:   target,
					Seed:          1,
					Partition:     facs.PartitionBlocks,
				}
				if elastic {
					cfg.RebalanceEveryTicks = 1
					cfg.Rebalance = facs.ShardPlannerConfig{MaxMoves: 4, Tolerance: 0.01}
				}
				var last facs.MetropolisResult
				for i := 0; i < b.N; i++ {
					res, err := facs.RunMetropolis(cfg)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.DecisionsPerSec(), "decisions/s")
				if elastic {
					b.ReportMetric(float64(last.Rebalances), "epochs")
					b.ReportMetric(float64(last.MigratedCalls), "calls-moved")
				}
			})
		}
	}
}

// BenchmarkBatchDecide times a full 512-request batch through the batch
// pipeline (cac.DecideAll) for each batch-capable controller, against
// the same requests decided one by one. One benchmark op is the whole
// batch; the per-request cost is ns/op divided by 512.
func BenchmarkBatchDecide(b *testing.B) {
	const batchSize = 512
	net, err := facs.NewNetwork(facs.NetworkConfig{Rings: 2})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	classes := []facs.Class{facs.Text, facs.Voice, facs.Video}
	reqs := make([]facs.AdmissionRequest, 0, batchSize)
	for len(reqs) < batchSize {
		pos := facs.Point{
			X: (2*rng.Float64() - 1) * 7000,
			Y: (2*rng.Float64() - 1) * 7000,
		}
		bs, err := net.StationAt(pos)
		if err != nil {
			continue
		}
		class := classes[len(reqs)%len(classes)]
		est := igps.Estimate{
			Pos:        pos,
			HeadingDeg: rng.Float64()*360 - 180,
			SpeedKmh:   rng.Float64() * 120,
		}
		reqs = append(reqs, facs.AdmissionRequest{
			Call:    facs.Call{ID: len(reqs) + 1, Class: class, BU: class.BandwidthUnits()},
			Station: bs,
			Obs:     igps.Observe(est, bs.Pos()),
			Est:     est,
		})
	}
	controllers := []struct {
		name  string
		build func() (facs.Controller, error)
	}{
		{"facs-compiled", func() (facs.Controller, error) { return facs.DefaultCompiledSystem() }},
		{"scc-ledger", func() (facs.Controller, error) {
			ctrl, err := facs.NewSCCLedger(facs.SCCConfig{Network: net})
			if err != nil {
				return nil, err
			}
			sccScatter(b, net, ctrl, 1000)
			return ctrl, nil
		}},
		{"guard-channel", func() (facs.Controller, error) { return facs.NewGuardChannel(8) }},
	}
	for _, tc := range controllers {
		tc := tc
		ctrl, err := tc.build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/batch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := facs.DecideAll(ctrl, reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/sequential", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range reqs {
					if _, err := ctrl.Decide(reqs[j]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
