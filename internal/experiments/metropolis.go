package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/serve"
	"facs/internal/shard"
	"facs/internal/sim"
	"facs/internal/traffic"
)

// MetropolisMode selects which decision path carries the metropolis
// workload. Both paths consume the identical request stream; for
// cell-local controllers MetroBatch and MetroSharded (at any shard
// count) produce byte-identical outcomes at equal MaxBatch.
type MetropolisMode int

// Decision paths. The values are hashed into snapshot configurations,
// so they never change; 1 is retired.
const (
	// MetroBatch decides MaxBatch-sized chunks against chunk-start
	// snapshots and commits per request in order — a serve.Core's wave
	// semantics, driven inline. At MaxBatch 1 it is the classic
	// decide-one event loop.
	MetroBatch MetropolisMode = 2
	// MetroSharded routes waves through a shard.Engine with Commit mode
	// and the serialized handoff protocol.
	MetroSharded MetropolisMode = 3
)

// String implements fmt.Stringer.
func (m MetropolisMode) String() string {
	switch m {
	case MetroBatch:
		return "batch"
	case MetroSharded:
		return "sharded"
	default:
		return fmt.Sprintf("MetropolisMode(%d)", int(m))
	}
}

// The scenario's fixed shape. Each value is hashed into snapshot
// configurations exactly as when it was a MetropolisConfig field, so
// snapshots written before it became a constant still restore.
const (
	// metroStartHour is the local time of wave 0 in hours: the run
	// climbs into the morning rush.
	metroStartHour = 5.0
	// metroHotspots is the number of hot-spot cells attracting
	// rush-hour traffic.
	metroHotspots = 3
	// metroHotspotSigmaCells is the Gaussian reach of a hotspot in hex
	// rings.
	metroHotspotSigmaCells = 3.0
	// metroRushBias scales both the arrival skew toward hotspot cells
	// and the handoff steering during rush hours.
	metroRushBias = 2.0
	// metroHoldWavesMin and metroHoldWavesMax bound the uniform
	// call-duration draw in waves.
	metroHoldWavesMin = 2
	metroHoldWavesMax = 8
	// metroHandoffFraction is the per-round probability that an active
	// call attempts a handoff.
	metroHandoffFraction = 0.08
)

// metroMix is the class mix (60/30/10).
var metroMix = traffic.DefaultMix()

// MetropolisConfig parameterises the metropolis-scale workload: a
// city-sized hex deployment under one simulated day of diurnal traffic,
// with rush-hour mobility steered toward hot-spot cells.
type MetropolisConfig struct {
	// NewController builds the admission controller for one shard view;
	// MetroBatch passes shard.SingleView. Required.
	NewController func(v shard.View) (cac.Controller, error)
	// Mode selects the decision path (default MetroBatch).
	Mode MetropolisMode
	// Shards is the engine's shard count for MetroSharded (default 1).
	Shards int
	// Partition selects the initial station-to-shard layout for
	// MetroSharded (see shard.Config.Partition; default round-robin).
	Partition shard.Partition
	// RebalanceEveryTicks enables elastic rebalancing every so many
	// tick barriers for MetroSharded (see
	// shard.Config.RebalanceEveryTicks; default 0 = static partition).
	RebalanceEveryTicks int
	// Rebalance bounds the planner when rebalancing is enabled.
	Rebalance shard.PlannerConfig
	// Rings is the network size (default 18: 1027 cells).
	Rings int
	// CellRadiusM is the hex cell radius (default 500 m: urban
	// micro-cells).
	CellRadiusM float64
	// CapacityBU is the per-station bandwidth. The default derives a
	// capacity from TargetCalls so the deployment runs loaded but not
	// jammed: ceil(2.6 x TargetCalls x meanBU / cells), floored at the
	// paper's 40 BU.
	CapacityBU int
	// TargetCalls scales the workload: the diurnal peak of the intended
	// concurrent call population (default 20000).
	TargetCalls int
	// Waves is the number of decision waves to run (default WavesPerDay:
	// one full day).
	Waves int
	// WavesPerDay sets the wave cadence against the diurnal clock
	// (default 96: 15-minute waves).
	WavesPerDay int
	// SpeedKmh samples user speeds (default Span{10, 80}).
	SpeedKmh Span
	// HandoffEveryWaves runs a handoff round every so many waves
	// (default 2).
	HandoffEveryWaves int
	// TickEveryWaves delivers a barrier OnTick every so many waves
	// (default 4).
	TickEveryWaves int
	// MaxBatch is the decision chunk size (default 256).
	MaxBatch int
	// Seed drives all randomness.
	Seed int64
	// MeasureMem reports heap bytes per concurrent call, measured with a
	// forced GC at the predicted population peak (default off: the GC
	// pass costs wall-clock, never outcomes).
	MeasureMem bool
	// SnapshotDir, when non-empty, enables durable snapshots: the run
	// writes metropolis.snap into this directory (atomically, via a
	// temp-file rename) every SnapshotEveryTicks tick barriers and once
	// more when Stop fires. Snapshot writes happen between waves, never
	// inside the wave loop's hot path.
	SnapshotDir string
	// SnapshotEveryTicks is the snapshot cadence in tick barriers
	// (default 0: only the final on-stop snapshot is written).
	SnapshotEveryTicks int
	// Restore, when non-empty, warm-starts the run from a snapshot file
	// written by a previous run with an identical configuration. The
	// restored run continues exactly where the snapshot was cut:
	// replaying the remaining waves reproduces the uninterrupted run's
	// DecisionHash byte for byte.
	Restore string
	// Stop, when non-nil, requests a graceful early exit: the run
	// finishes the wave in flight, writes a final snapshot (if
	// SnapshotDir is set) and returns with Stopped set.
	Stop <-chan struct{}
}

func (c MetropolisConfig) withDefaults() MetropolisConfig {
	if c.Mode == 0 {
		c.Mode = MetroBatch
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Rings == 0 {
		c.Rings = 18
	}
	if c.CellRadiusM == 0 {
		c.CellRadiusM = 500
	}
	if c.TargetCalls == 0 {
		c.TargetCalls = 20000
	}
	if c.WavesPerDay == 0 {
		c.WavesPerDay = 96
	}
	if c.Waves == 0 {
		c.Waves = c.WavesPerDay
	}
	if (c.SpeedKmh == Span{}) {
		c.SpeedKmh = Span{Min: 10, Max: 80}
	}
	if c.HandoffEveryWaves == 0 {
		c.HandoffEveryWaves = 2
	}
	if c.TickEveryWaves == 0 {
		c.TickEveryWaves = 4
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.CapacityBU == 0 {
		mean := metroMix.MeanBU()
		cells := geo.SpiralLen(c.Rings)
		c.CapacityBU = int(math.Ceil(2.6 * float64(c.TargetCalls) * mean / float64(cells)))
		if c.CapacityBU < cell.DefaultCapacityBU {
			c.CapacityBU = cell.DefaultCapacityBU
		}
	}
	return c
}

// Validate checks the configuration.
func (c MetropolisConfig) Validate() error {
	if c.NewController == nil {
		return fmt.Errorf("experiments: metropolis config needs a controller factory")
	}
	if c.Mode != MetroBatch && c.Mode != MetroSharded {
		return fmt.Errorf("experiments: unknown metropolis mode %v", c.Mode)
	}
	if c.Shards < 1 {
		return fmt.Errorf("experiments: Shards must be >= 1, got %d", c.Shards)
	}
	if c.Rings < 1 {
		return fmt.Errorf("experiments: Rings must be >= 1, got %d", c.Rings)
	}
	if c.TargetCalls < 1 {
		return fmt.Errorf("experiments: TargetCalls must be >= 1, got %d", c.TargetCalls)
	}
	if c.Waves < 1 || c.WavesPerDay < 1 {
		return fmt.Errorf("experiments: Waves and WavesPerDay must be >= 1")
	}
	if c.HandoffEveryWaves < 1 || c.TickEveryWaves < 1 {
		return fmt.Errorf("experiments: HandoffEveryWaves and TickEveryWaves must be >= 1")
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("experiments: MaxBatch must be >= 1, got %d", c.MaxBatch)
	}
	if c.SnapshotEveryTicks < 0 {
		return fmt.Errorf("experiments: SnapshotEveryTicks must be >= 0, got %d", c.SnapshotEveryTicks)
	}
	if c.SnapshotEveryTicks > 0 && c.SnapshotDir == "" {
		return fmt.Errorf("experiments: SnapshotEveryTicks needs a SnapshotDir")
	}
	return c.SpeedKmh.Validate()
}

// MetropolisResult aggregates one metropolis run.
type MetropolisResult struct {
	// ControllerName identifies the scheme under test.
	ControllerName string
	// Mode is the decision path; Shards the realised shard count
	// (1 for MetroBatch); Cells the deployment size; CapacityBU the
	// realised per-station bandwidth.
	Mode       MetropolisMode
	Shards     int
	Cells      int
	CapacityBU int
	// Waves is the number of waves run.
	Waves int
	// Requested / Accepted / Committed count new-call admission
	// outcomes; Released the closed-loop retirements.
	Requested, Accepted, Committed, Released int
	// Handoffs / HandoffDropped / CrossShard count the handoff protocol
	// (CrossShard stays 0 for MetroBatch).
	Handoffs, HandoffDropped, CrossShard int
	// PeakConcurrent is the largest live-call population observed at a
	// wave boundary; FinalActive the population when the run ended.
	PeakConcurrent, FinalActive int
	// DecisionHash is an FNV-1a digest of every decision and commit
	// outcome in stream order — the byte-identity fingerprint across
	// repeats, modes and shard counts.
	DecisionHash uint64
	// Epoch is the final ownership version; Rebalances / Migrations /
	// MigratedCalls count elastic-rebalance activity (all zero for
	// inline modes and static partitions).
	Epoch                                 uint64
	Rebalances, Migrations, MigratedCalls int64
	// GhostRows counts exchange rows actually fanned to sibling shards;
	// GhostRowsAllToAll what an unscoped fan-out would have applied;
	// InterestScoped whether the exchange was scoped.
	GhostRows, GhostRowsAllToAll int64
	InterestScoped               bool
	// FanOuts counts where sharded chunk slices ran (zero for MetroBatch).
	FanOuts shard.FanOuts
	// BytesPerCall is live heap bytes per concurrent call measured at
	// the predicted population peak (0 unless MeasureMem).
	BytesPerCall float64
	// Snapshots counts durable snapshot files written; Stopped reports
	// whether the run exited early on the Stop channel.
	Snapshots int
	Stopped   bool
	// Elapsed is the wall-clock of the wave loop (excludes network and
	// controller construction).
	Elapsed time.Duration
}

// Decisions returns the total number of admission decisions rendered
// (new calls plus handoff admissions).
func (r MetropolisResult) Decisions() int { return r.Requested + r.Handoffs }

// DecisionsPerSec returns the sustained decision throughput of the wave
// loop.
func (r MetropolisResult) DecisionsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Decisions()) / r.Elapsed.Seconds()
}

// AcceptedPct returns 100 * accepted / requested.
func (r MetropolisResult) AcceptedPct() float64 {
	if r.Requested == 0 {
		return 0
	}
	return 100 * float64(r.Accepted) / float64(r.Requested)
}

// DropPct returns 100 * dropped / handoffs.
func (r MetropolisResult) DropPct() float64 {
	if r.Handoffs == 0 {
		return 0
	}
	return 100 * float64(r.HandoffDropped) / float64(r.Handoffs)
}

// metroEngine abstracts the decision paths behind the wave loop.
type metroEngine interface {
	controllerName() (string, error)
	// submitWave decides one chunk of arrivals into out[:len(reqs)];
	// a decision error is either returned or carried by the responses.
	submitWave(reqs []cac.Request, out []serve.Response) error
	release(id int, station *cell.BaseStation, now float64) error
	// handoff runs the two-phase transfer protocol and reports the
	// target-side response plus whether the transfer crossed shards.
	handoff(id int, from, to *cell.BaseStation, est gps.Estimate, now float64) (serve.Response, bool, error)
	tick(now float64) error
	close() error
}

// inlineMetroEngine drives one serve.Core on the wave loop's goroutine,
// with no lock: Commit-mode waves chunked at MaxBatch in request order,
// each chunk decided against its start snapshot and committed per
// request in order.
type inlineMetroEngine struct {
	core *serve.Core
}

func (e *inlineMetroEngine) controllerName() (string, error) { return e.core.Controller().Name(), nil }

func (e *inlineMetroEngine) submitWave(reqs []cac.Request, out []serve.Response) error {
	return e.core.DecideWave(reqs, out, time.Now()) //facs:wallclock latency stamp; feeds the Core's latency gauges only
}

func (e *inlineMetroEngine) release(id int, station *cell.BaseStation, now float64) error {
	// A failed station release counts into the Core's OpErrs instead of
	// failing the wave, as on the sharded path; the conservation check
	// in finish then fails the run.
	e.core.Release(id, station, now)
	return nil
}

func (e *inlineMetroEngine) handoff(id int, from, to *cell.BaseStation, est gps.Estimate, now float64) (serve.Response, bool, error) {
	// Phase 1: release at the source (shard.Engine's protocol order).
	call, err := e.core.Depart(id, from, now)
	if err != nil {
		return serve.Response{}, false, err
	}
	// Phase 2: target-side admission with handoff priority.
	resp := e.core.Handoff(call, to, est, now)
	if resp.Err != nil && !resp.Decision.Accepted() {
		return serve.Response{}, false, resp.Err
	}
	return resp, false, nil
}

func (e *inlineMetroEngine) tick(now float64) error {
	e.core.Tick(now)
	return nil
}

func (e *inlineMetroEngine) close() error { return nil }

// shardMetroEngine adapts shard.Engine to the wave loop.
type shardMetroEngine struct {
	engine *shard.Engine
}

func (e *shardMetroEngine) controllerName() (string, error) {
	var name string
	err := e.engine.Do(0, func(ctrl cac.Controller) { name = ctrl.Name() })
	return name, err
}

func (e *shardMetroEngine) submitWave(reqs []cac.Request, out []serve.Response) error {
	return e.engine.SubmitWaveTo(reqs, out)
}

func (e *shardMetroEngine) release(id int, station *cell.BaseStation, now float64) error {
	return e.engine.Release(id, station, now)
}

func (e *shardMetroEngine) handoff(id int, from, to *cell.BaseStation, est gps.Estimate, now float64) (serve.Response, bool, error) {
	res := e.engine.HandoffCall(shard.Handoff{CallID: id, From: from, To: to, Est: est, Now: now})
	return res.Response, res.CrossShard, res.Err
}

func (e *shardMetroEngine) tick(now float64) error { return e.engine.Tick(now) }

func (e *shardMetroEngine) close() error { return e.engine.Close() }

// fnv1a is an incremental FNV-1a 64-bit digest.
type fnv1a uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (h *fnv1a) writeByte(b byte) { *h = (*h ^ fnv1a(b)) * fnvPrime64 }

// writeOutcome hashes one admission outcome: its kind, call ID, and
// accepted and committed bits.
func (h *fnv1a) writeOutcome(kind byte, id int, o serve.Response) {
	h.writeByte(kind)
	u := uint32(id)
	h.writeByte(byte(u))
	h.writeByte(byte(u >> 8))
	h.writeByte(byte(u >> 16))
	h.writeByte(byte(u >> 24))
	var bits byte
	if o.Decision.Accepted() {
		bits |= 1
	}
	if o.Committed {
		bits |= 2
	}
	h.writeByte(bits)
}

// metroLedger is the run's struct-of-arrays active-call table. Waves
// compact it in place (stable order), so iteration order is the
// admission order — deterministic across modes and shard counts.
type metroLedger struct {
	id      []int32
	class   []traffic.Class
	bu      []int8
	station []int32 // index into the network's (Q, R) station order
	release []int32 // wave at which the call retires
}

func (l *metroLedger) push(id int, class traffic.Class, bu int, station int, release int) {
	l.id = append(l.id, int32(id))
	l.class = append(l.class, class)
	l.bu = append(l.bu, int8(bu))
	l.station = append(l.station, int32(station))
	l.release = append(l.release, int32(release))
}

func (l *metroLedger) set(dst, src int) {
	l.id[dst] = l.id[src]
	l.class[dst] = l.class[src]
	l.bu[dst] = l.bu[src]
	l.station[dst] = l.station[src]
	l.release[dst] = l.release[src]
}

func (l *metroLedger) truncate(n int) {
	l.id = l.id[:n]
	l.class = l.class[:n]
	l.bu = l.bu[:n]
	l.station = l.station[:n]
	l.release = l.release[:n]
}

func (l *metroLedger) len() int { return len(l.id) }

// metroWaveSec is the simulation time one wave advances: one
// diurnal-clock wave.
func metroWaveSec(wavesPerDay int) float64 { return 86400 / float64(wavesPerDay) }

// metroWorkload precomputes the deterministic scenario shape: the
// diurnal arrival schedule, the hotspot proximity field, and the
// per-wave cell-choice distributions.
type metroWorkload struct {
	cfg      MetropolisConfig
	stations []*cell.BaseStation
	// prox is each cell's summed Gaussian proximity to the hotspots in
	// [0, Hotspots].
	prox []float64
	// handoff holds each station's handoff candidates (see
	// metroNeighbours), indexed like stations.
	handoff []metroNeighbours
	// arrivals is the scheduled arrival count per wave.
	arrivals []int
	// cellCum is the per-wave cumulative cell-choice distribution
	// (scratch buffer; see ensureCellCum).
	cellCum []float64
	// cellGuide and cellScale index cellCum for sampleCell: guide[b] is
	// the first j with int(cellCum[j]*cellScale) >= b, clamped to the
	// last cell; cellScale maps [0, total] onto the guide's buckets.
	cellGuide []int32
	cellScale float64
	// cellCumSkew is the hotspot skew cellCum was last built for;
	// cellCumOK reports whether cellCum holds any build at all.
	cellCumSkew float64
	cellCumOK   bool
	// mix is the cumulative class distribution.
	mixCum [3]float64
	// inradiusM bounds the position jitter inside a chosen cell.
	inradiusM float64
}

// metroNeighbours is one station's in-network neighbours, in
// Hex.Neighbors order, with the proximity gradient prox[target] -
// prox[station] that the handoff steer scales.
type metroNeighbours struct {
	n      int
	target [6]int32
	dprox  [6]float64
}

// gauss is the unnormalized Gaussian bump exp(-(x-mu)^2 / (2 sigma^2)),
// shared by the day-profile shapes below (a package function rather than
// a per-call closure: the profiles sit on the wave hot path).
func gauss(x, mu, sigma float64) float64 {
	d := x - mu
	return math.Exp(-d * d / (2 * sigma * sigma))
}

// diurnal is the double-hump day profile in [~0.15, 1]: morning and
// evening rush peaks with a midday shoulder and a deep night valley.
func diurnal(hour float64) float64 {
	peak := math.Max(gauss(hour, 8.5, 2.2), gauss(hour, 18, 2.5))
	peak = math.Max(peak, 0.55*gauss(hour, 13, 3.5))
	return 0.15 + 0.85*peak
}

// rushFactor is the rush-hour intensity in [0, 1] driving hotspot skew.
func rushFactor(hour float64) float64 {
	return math.Max(gauss(hour, 8.5, 1.5), gauss(hour, 18, 1.5))
}

// rushDirection steers handoffs: positive (toward hotspots) through the
// morning, negative (homeward) through the evening.
func rushDirection(hour float64) float64 {
	if hour < 13 {
		return rushFactor(hour)
	}
	return -rushFactor(hour)
}

func newMetroWorkload(cfg MetropolisConfig, net *cell.Network) *metroWorkload {
	w := &metroWorkload{
		cfg:       cfg,
		stations:  net.Stations(),
		inradiusM: cfg.CellRadiusM * math.Sqrt(3) / 2,
	}
	// Hotspots: evenly spaced picks from the spiral order, skipping the
	// exact centre so the downtown cluster sits off-origin.
	hotspots := make([]geo.Hex, 0, metroHotspots)
	for k := 1; k <= metroHotspots; k++ {
		hotspots = append(hotspots, w.stations[(k*len(w.stations))/(metroHotspots+1)].Hex())
	}
	w.prox = make([]float64, len(w.stations))
	sigma2 := 2 * metroHotspotSigmaCells * metroHotspotSigmaCells
	for i, bs := range w.stations {
		for _, h := range hotspots {
			d := float64(bs.Hex().DistanceTo(h))
			w.prox[i] += math.Exp(-d * d / sigma2)
		}
	}
	// Handoff tables: the (Q, R) station order inverted once, so a
	// handoff reads its candidates instead of looking each one up.
	stationIdx := make(map[geo.Hex]int, len(w.stations))
	for i, bs := range w.stations {
		stationIdx[bs.Hex()] = i
	}
	w.handoff = make([]metroNeighbours, len(w.stations))
	for si, bs := range w.stations {
		nb := &w.handoff[si]
		for _, nh := range bs.Hex().Neighbors() {
			ti, ok := stationIdx[nh]
			if !ok {
				continue
			}
			nb.target[nb.n] = int32(ti)
			nb.dprox[nb.n] = w.prox[ti] - w.prox[si]
			nb.n++
		}
	}
	// Arrival schedule: the population integrates arrivals over the mean
	// hold, so arrivals-per-wave = diurnal x TargetCalls / meanHold puts
	// the concurrent population at the diurnal curve times TargetCalls.
	meanHold := float64(metroHoldWavesMin+metroHoldWavesMax) / 2
	w.arrivals = make([]int, cfg.Waves)
	for wave := range w.arrivals {
		w.arrivals[wave] = int(diurnal(w.hourOf(wave)) * float64(cfg.TargetCalls) / meanHold)
	}
	w.cellCum = make([]float64, len(w.stations))
	w.cellGuide = make([]int32, 2*len(w.stations)+1)
	total := metroMix.Text + metroMix.Voice + metroMix.Video
	w.mixCum[0] = metroMix.Text / total
	w.mixCum[1] = w.mixCum[0] + metroMix.Voice/total
	w.mixCum[2] = 1
	return w
}

func (w *metroWorkload) hourOf(wave int) float64 {
	return math.Mod(metroStartHour+24*float64(wave)/float64(w.cfg.WavesPerDay), 24)
}

// peakWave returns the wave with the largest scheduled population (the
// arrival sum over one mean hold), where MeasureMem snapshots the heap.
func (w *metroWorkload) peakWave() int {
	const meanHold = (metroHoldWavesMin + metroHoldWavesMax) / 2
	best, bestSum, sum := 0, 0, 0
	for wave := range w.arrivals {
		sum += w.arrivals[wave]
		if wave >= meanHold {
			sum -= w.arrivals[wave-meanHold]
		}
		if sum > bestSum {
			best, bestSum = wave, sum
		}
	}
	return best
}

// ensureCellCum makes the cumulative cell-choice weights and their
// guide current for a wave: uniform base plus rush-scaled hotspot
// proximity. The weights depend on the wave only through the hotspot
// skew, which moves with the diurnal clock, so in practice both are
// rebuilt every wave; a repeated skew skips the rebuild.
func (w *metroWorkload) ensureCellCum(wave int) {
	skew := metroRushBias * rushFactor(w.hourOf(wave))
	if w.cellCumOK && skew == w.cellCumSkew {
		return
	}
	cum := 0.0
	for i := range w.cellCum {
		cum += 1 + skew*w.prox[i]
		w.cellCum[i] = cum
	}
	// Guide buckets: int(c*scale) is monotone in c, so one sweep finds
	// each bucket's first cell.
	last := len(w.cellCum) - 1
	w.cellScale = float64(len(w.cellGuide)-1) / cum
	j := 0
	for b := range w.cellGuide {
		for j < last && int(w.cellCum[j]*w.cellScale) < b {
			j++
		}
		w.cellGuide[b] = int32(j)
	}
	w.cellCumSkew = skew
	w.cellCumOK = true
}

// sampleCell draws a station index from the wave's distribution.
func (w *metroWorkload) sampleCell(rng *rand.Rand) int {
	return w.cellAt(rng.Float64() * w.cellCum[len(w.cellCum)-1])
}

// cellAt returns the first cell whose cumulative weight exceeds x, or
// the last cell when none does: a binary search's answer, found from
// the guide. For that answer k, cellCum[k] > x gives
// int(cellCum[k]*scale) >= int(x*scale), since rounding a product by a
// positive constant is monotone, so the guide never starts past k and
// the forward walk stops exactly on it.
func (w *metroWorkload) cellAt(x float64) int {
	cum, last := w.cellCum, len(w.cellCum)-1
	k := int(w.cellGuide[int(x*w.cellScale)])
	for k < last && cum[k] <= x {
		k++
	}
	return k
}

// sampleClass draws a service class from the mix (allocation-free).
func (w *metroWorkload) sampleClass(rng *rand.Rand) traffic.Class {
	x := rng.Float64()
	switch {
	case x < w.mixCum[0]:
		return traffic.Text
	case x < w.mixCum[1]:
		return traffic.Voice
	default:
		return traffic.Video
	}
}

// sampleEstimate draws a user's kinematic state inside station si's cell.
func (w *metroWorkload) sampleEstimate(rng *rand.Rand, si int, now float64) gps.Estimate {
	r := 0.9 * w.inradiusM * math.Sqrt(rng.Float64())
	sin, cos := math.Sincos(2 * math.Pi * rng.Float64())
	c := w.stations[si].Pos()
	return gps.Estimate{
		Pos:        geo.Point{X: c.X + r*cos, Y: c.Y + r*sin},
		HeadingDeg: sim.Uniform(rng, -180, 180),
		SpeedKmh:   w.cfg.SpeedKmh.Sample(rng),
		Time:       now,
	}
}

// handoffSteer is a wave's handoff steering strength along the hotspot
// gradient: toward hotspots through the morning commute, away through
// the evening.
func (w *metroWorkload) handoffSteer(wave int) float64 {
	return metroRushBias * rushDirection(w.hourOf(wave))
}

// sampleHandoffTarget draws the neighbouring cell a moving call from
// station si enters, each candidate weighted exp(steer * gradient).
func (w *metroWorkload) sampleHandoffTarget(rng *rand.Rand, si int, steer float64) (int, bool) {
	nb := &w.handoff[si]
	if nb.n == 0 {
		return 0, false
	}
	var weights [6]float64
	total := 0.0
	for i := 0; i < nb.n; i++ {
		wt := math.Exp(steer * nb.dprox[i])
		weights[i] = wt
		total += wt
	}
	x := rng.Float64() * total
	for i := 0; i < nb.n; i++ {
		x -= weights[i]
		if x < 0 {
			return int(nb.target[i]), true
		}
	}
	return int(nb.target[nb.n-1]), true
}

// RunMetropolis executes the metropolis-scale scenario: one simulated
// day (by default) of diurnal traffic over a city-sized hex deployment,
// with rush-hour mobility steered toward hot-spot cells, driven through
// the selected decision path. Outcomes are deterministic in the config:
// repeats produce identical DecisionHash values. For cell-local
// controllers the hash is additionally identical across every shard
// count and across batch/sharded modes at equal MaxBatch; non-cell-local controllers such as the SCC
// demand ledger are reproducible per shard count but legitimately
// diverge between shard counts.
func RunMetropolis(cfg MetropolisConfig) (MetropolisResult, error) {
	r, err := newMetroRun(cfg)
	if err != nil {
		return MetropolisResult{}, err
	}
	defer r.close()
	if r.cfg.Restore != "" {
		if err := r.restoreFromFile(r.cfg.Restore); err != nil {
			return MetropolisResult{}, err
		}
	}
	start := time.Now() //facs:wallclock wall-time Elapsed metric only; never feeds a decision
	for r.wave < r.cfg.Waves {
		select {
		case <-r.cfg.Stop:
			r.result.Stopped = true
		default:
		}
		if r.result.Stopped {
			break
		}
		if err := r.runWave(); err != nil {
			return MetropolisResult{}, err
		}
		// Durable snapshots ride the tick cadence and run strictly
		// between waves, outside the allocation-gated hot path.
		if r.cfg.SnapshotDir != "" && r.cfg.SnapshotEveryTicks > 0 &&
			r.wave%(r.cfg.TickEveryWaves*r.cfg.SnapshotEveryTicks) == 0 {
			r.live.Store(false) // the helper may park once the ring is full
			if err := r.writeSnapshot(); err != nil {
				return MetropolisResult{}, err
			}
		}
	}
	r.live.Store(false)
	if r.result.Stopped && r.cfg.SnapshotDir != "" {
		if err := r.writeSnapshot(); err != nil {
			return MetropolisResult{}, err
		}
	}
	r.result.Elapsed = time.Since(start) //facs:wallclock wall-time Elapsed metric only
	return r.finish()
}

// metroRingChunks is the number of MaxBatch-sized arrival chunks the
// drawer may draw ahead of the wave loop. At the default MaxBatch it
// holds about one peak wave of the default city, enough to keep
// drawing across a wave boundary while the loop runs releases, ticks
// and the handoff round.
const metroRingChunks = 16

// metroDrawGroup bounds the arrivals one draw call draws: the sharded
// engine's helper looks for a posted slice between calls.
const metroDrawGroup = 16

// arrivalChunk is one MaxBatch-sized piece of a wave's arrivals, as it
// was drawn: the requests, each call's hold in waves and station
// index, and the call stream's draw count once the chunk was drawn.
type arrivalChunk struct {
	reqs  []cac.Request
	holds []int
	cells []int
	draws uint64
}

// metroRun is the wave loop's live state, split out of RunMetropolis so
// tests can step individual waves (warm the scratch buffers through the
// population ramp, then gate steady-state allocations per wave). A run
// that a test steps must end with finish or close, which stop the
// drawing.
type metroRun struct {
	cfg        MetropolisConfig
	engine     metroEngine
	workload   *metroWorkload
	callRNG    *rand.Rand
	handoffRNG *rand.Rand
	// callSrc/handoffSrc count the RNG streams' draws so a snapshot can
	// record each stream as a single replayable position (see
	// sim.CountedSource); the counting costs one increment per draw and
	// allocates nothing.
	callSrc    *sim.CountedSource
	handoffSrc *sim.CountedSource
	result     MetropolisResult
	hash       fnv1a
	ledger     metroLedger
	// outs receives one chunk's outcomes.
	outs []serve.Response

	// The arrivals (see startDrawing): one goroutine alone draws, using
	// callRNG, callSrc, cursor and the workload's cell-choice tables,
	// into a one-writer, one-reader ring of chunks counted drawn and
	// used. live is set while the loop runs waves; wake ends the
	// drawer's park (nil when the loop draws); a producer goroutine
	// parks on room, stops when it closes and then closes done.
	chunks      []arrivalChunk
	drawn, used atomic.Int64
	started     bool
	live        atomic.Bool
	wake        func()
	room, done  chan struct{}
	// callDraws is callSrc's draw count at the end of the last wave the
	// loop consumed: the call stream's position a snapshot records,
	// however far the drawer has drawn ahead.
	callDraws uint64

	nextID   int
	wave     int
	baseHeap uint64
	peakWave int

	// cursor is the drawer's position, last so that its writes stay off
	// the lines the wave loop reads per request.
	cursor struct{ wave, i, nextID int }
}

func newMetroRun(cfg MetropolisConfig) (*metroRun, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := cell.NewNetwork(cell.NetworkConfig{
		Rings:       cfg.Rings,
		CellRadiusM: cfg.CellRadiusM,
		CapacityBU:  cfg.CapacityBU,
	})
	if err != nil {
		return nil, err
	}

	var engine metroEngine
	switch cfg.Mode {
	case MetroSharded:
		eng, err := shard.New(shard.Config{
			Network:             net,
			Shards:              cfg.Shards,
			NewController:       cfg.NewController,
			MaxBatch:            cfg.MaxBatch,
			Commit:              true,
			Partition:           cfg.Partition,
			RebalanceEveryTicks: cfg.RebalanceEveryTicks,
			Rebalance:           cfg.Rebalance,
		})
		if err != nil {
			return nil, err
		}
		engine = &shardMetroEngine{engine: eng}
	default:
		ctrl, err := cfg.NewController(shard.SingleView(net))
		if err != nil {
			return nil, err
		}
		engine = &inlineMetroEngine{core: serve.NewCore(ctrl, true, cfg.MaxBatch)}
	}

	callRNG, callSrc := sim.NewCountedStream(cfg.Seed, "metro-calls")
	handoffRNG, handoffSrc := sim.NewCountedStream(cfg.Seed, "metro-handoff")
	r := &metroRun{
		cfg:        cfg,
		engine:     engine,
		workload:   newMetroWorkload(cfg, net),
		callRNG:    callRNG,
		handoffRNG: handoffRNG,
		callSrc:    callSrc,
		handoffSrc: handoffSrc,
		hash:       fnv1a(fnvOffset64),
		nextID:     1,
		peakWave:   -1,
	}
	r.result = MetropolisResult{
		Mode:       cfg.Mode,
		Cells:      net.NumCells(),
		CapacityBU: cfg.CapacityBU,
		Shards:     1,
	}
	if cfg.Mode == MetroSharded {
		r.result.Shards = engine.(*shardMetroEngine).engine.Shards()
	}
	if r.result.ControllerName, err = engine.controllerName(); err != nil {
		_ = engine.close()
		return nil, err
	}

	// Size the ring and the outcome buffer once: the drawer never holds
	// more than metroRingChunks chunks of arrivals, the loop decides one
	// at a time.
	r.outs = make([]serve.Response, cfg.MaxBatch)
	r.chunks = make([]arrivalChunk, metroRingChunks)
	for k := range r.chunks {
		r.chunks[k] = arrivalChunk{
			reqs:  make([]cac.Request, 0, cfg.MaxBatch),
			holds: make([]int, 0, cfg.MaxBatch),
			cells: make([]int, 0, cfg.MaxBatch),
		}
	}

	if cfg.MeasureMem {
		r.peakWave = r.workload.peakWave()
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		r.baseHeap = ms.HeapAlloc
	}
	return r, nil
}

// startDrawing starts drawing at the run's wave and call ID on the
// sharded engine's helper, which stays awake while the loop runs waves;
// else on a producer goroutine, given a second CPU; else on the loop.
//
//facs:coldpath runs once per run, before the first wave
func (r *metroRun) startDrawing() {
	r.cursor.wave, r.cursor.nextID = r.wave, r.nextID
	r.started = true
	if sme, ok := r.engine.(*shardMetroEngine); ok {
		r.wake = sme.engine.Background(func() bool { return r.draw() || r.live.Load() })
	}
	if r.wake == nil && runtime.GOMAXPROCS(0) > 1 {
		r.room, r.done = make(chan struct{}, 1), make(chan struct{})
		r.wake = func() {
			select {
			case r.room <- struct{}{}:
			default:
			}
		}
		go r.produce()
	}
}

// produce draws every remaining arrival, parking while the ring is
// full, and returns early once room closes.
func (r *metroRun) produce() {
	defer close(r.done)
	for r.draw() || r.cursor.wave < r.cfg.Waves {
		if r.drawn.Load()-r.used.Load() == int64(len(r.chunks)) {
			if _, ok := <-r.room; !ok {
				return
			}
		}
	}
}

// draw draws up to metroDrawGroup arrivals into the ring's next chunk,
// chunked as the loop consumes them, and reports whether it drew any.
// Nothing the loop decides feeds back into these draws, so drawing
// ahead changes no bit of the stream.
//
//facs:hotpath
func (r *metroRun) draw() bool {
	cfg, workload, cur := r.cfg, r.workload, &r.cursor
	for cur.wave < cfg.Waves && cur.i == workload.arrivals[cur.wave] {
		cur.wave, cur.i = cur.wave+1, 0
	}
	seq := r.drawn.Load()
	if cur.wave == cfg.Waves || seq-r.used.Load() == int64(len(r.chunks)) {
		return false
	}
	// Draw into locals: the chunk headers share lines the loop reads.
	c := &r.chunks[seq%int64(len(r.chunks))]
	i, id := cur.i, cur.nextID
	reqs, holds, cells := c.reqs, c.holds, c.cells
	if i%cfg.MaxBatch == 0 {
		if i == 0 {
			workload.ensureCellCum(cur.wave)
		}
		reqs, holds, cells = reqs[:0], holds[:0], cells[:0]
	}
	n := workload.arrivals[cur.wave]
	end := min(n, i+metroDrawGroup, i-i%cfg.MaxBatch+cfg.MaxBatch)
	now := float64(cur.wave) * metroWaveSec(cfg.WavesPerDay)
	for ; i < end; i++ {
		si := workload.sampleCell(r.callRNG)
		class := workload.sampleClass(r.callRNG)
		est := workload.sampleEstimate(r.callRNG, si, now)
		bs := workload.stations[si]
		reqs = append(reqs, cac.Request{
			Call:    cell.Call{ID: id, Class: class, BU: class.BandwidthUnits()},
			Station: bs,
			Obs:     gps.Observe(est, bs.Pos()),
			Est:     est,
			Now:     now,
		})
		holds = append(holds, metroHoldWavesMin+r.callRNG.Intn(metroHoldWavesMax-metroHoldWavesMin+1))
		cells = append(cells, si)
		id++
	}
	c.reqs, c.holds, c.cells = reqs, holds, cells
	cur.i, cur.nextID = i, id
	if i == n || i%cfg.MaxBatch == 0 {
		c.draws = r.callSrc.Draws()
		r.drawn.Add(1)
	}
	return true
}

// close stops the drawing and closes the engine. It may run more than
// once.
func (r *metroRun) close() error {
	if r.room != nil {
		close(r.room)
		<-r.done
		r.room = nil
	}
	return r.engine.close()
}

// runWave advances the scenario by one wave: releases, the tick
// barrier, the handoff round, then the wave's arrivals. The first call
// starts the drawing; a wave after a pause wakes the drawer.
//
//facs:hotpath
func (r *metroRun) runWave() error {
	if !r.started {
		r.startDrawing()
	}
	if !r.live.Swap(true) && r.wake != nil {
		r.wake()
	}
	cfg, workload, engine := r.cfg, r.workload, r.engine
	wave := r.wave
	now := float64(wave) * metroWaveSec(cfg.WavesPerDay)

	// Retire calls due this wave, strictly before handoffs and new
	// admissions; stable in-place compaction keeps admission order.
	keep := 0
	for i := 0; i < r.ledger.len(); i++ {
		if r.ledger.release[i] <= int32(wave) {
			if err := engine.release(int(r.ledger.id[i]), workload.stations[r.ledger.station[i]], now); err != nil {
				return err
			}
			r.result.Released++
			continue
		}
		if keep != i {
			r.ledger.set(keep, i)
		}
		keep++
	}
	r.ledger.truncate(keep)

	if wave > 0 && wave%cfg.TickEveryWaves == 0 {
		if err := engine.tick(now); err != nil {
			return err
		}
	}

	// Handoff round: a seeded subset of the survivors moves along the
	// rush-hour gradient through the two-phase protocol.
	if wave > 0 && wave%cfg.HandoffEveryWaves == 0 {
		steer := workload.handoffSteer(wave)
		keep = 0
		for i := 0; i < r.ledger.len(); i++ {
			if r.handoffRNG.Float64() >= metroHandoffFraction {
				if keep != i {
					r.ledger.set(keep, i)
				}
				keep++
				continue
			}
			si := int(r.ledger.station[i])
			ti, ok := workload.sampleHandoffTarget(r.handoffRNG, si, steer)
			if !ok {
				if keep != i {
					r.ledger.set(keep, i)
				}
				keep++
				continue
			}
			est := workload.sampleEstimate(r.handoffRNG, ti, now)
			outcome, crossShard, err := engine.handoff(int(r.ledger.id[i]),
				workload.stations[si], workload.stations[ti], est, now)
			if err != nil {
				return err
			}
			r.result.Handoffs++
			if crossShard {
				r.result.CrossShard++
			}
			r.hash.writeOutcome('H', int(r.ledger.id[i]), outcome)
			if !outcome.Committed {
				r.result.HandoffDropped++
				continue // the call is lost; the source released it
			}
			r.ledger.station[i] = int32(ti)
			if keep != i {
				r.ledger.set(keep, i)
			}
			keep++
		}
		r.ledger.truncate(keep)
	}

	// Arrivals: the wave's scheduled draw from the diurnal curve, taken
	// from the ring one MaxBatch chunk at a time, so a wave's footprint
	// is the ring rather than O(arrivals).
	for lo := 0; lo < workload.arrivals[wave]; lo += cfg.MaxBatch {
		c := r.nextChunk()
		reqs, holds, cells := c.reqs, c.holds, c.cells
		if err := engine.submitWave(reqs, r.outs[:len(reqs)]); err != nil {
			return err
		}
		for i := range reqs {
			o := &r.outs[i]
			if o.Err != nil && !o.Decision.Accepted() {
				return o.Err // a decision error
			}
			call := &reqs[i].Call
			r.hash.writeOutcome('A', call.ID, *o)
			r.result.Requested++
			if o.Decision.Accepted() {
				r.result.Accepted++
			}
			if o.Committed {
				r.result.Committed++
				r.ledger.push(call.ID, call.Class, call.BU, cells[i], wave+holds[i])
			}
		}
		r.nextID += len(reqs)
		r.callDraws = c.draws
		r.used.Add(1)
		if r.wake != nil {
			r.wake()
		}
	}
	r.result.Waves++
	if r.ledger.len() > r.result.PeakConcurrent {
		r.result.PeakConcurrent = r.ledger.len()
	}
	if wave == r.peakWave && r.ledger.len() > 0 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > r.baseHeap {
			r.result.BytesPerCall = float64(ms.HeapAlloc-r.baseHeap) / float64(r.ledger.len())
		}
	}
	r.wave++
	return nil
}

// nextChunk returns the next drawn arrival chunk. While none is ready
// the loop draws itself when it is the drawer, and otherwise yields its
// processor to the drawer, which is awake: it parks only on a full
// ring or between waves.
//
//facs:hotpath
func (r *metroRun) nextChunk() *arrivalChunk {
	for r.drawn.Load() == r.used.Load() {
		if r.wake == nil {
			r.draw()
		} else {
			runtime.Gosched()
		}
	}
	return &r.chunks[r.used.Load()%int64(len(r.chunks))]
}

// finish stops the drawing, closes the engine, checks call
// conservation and returns the accumulated result.
func (r *metroRun) finish() (MetropolisResult, error) {
	r.result.FinalActive = r.ledger.len()
	r.result.DecisionHash = uint64(r.hash)
	if sme, ok := r.engine.(*shardMetroEngine); ok {
		st := sme.engine.Stats()
		r.result.Epoch = st.Epoch
		r.result.Rebalances = st.Rebalances
		r.result.Migrations = st.Migrations
		r.result.MigratedCalls = st.MigratedCalls
		r.result.GhostRows = st.GhostRows
		r.result.GhostRowsAllToAll = st.GhostRowsAllToAll
		r.result.InterestScoped = st.InterestScoped
		r.result.FanOuts = st.FanOuts
	}
	if err := r.close(); err != nil {
		return MetropolisResult{}, err
	}
	if err := r.conserved(); err != nil {
		return MetropolisResult{}, err
	}
	return r.result, nil
}

// conserved checks that every committed call is accounted for: the run
// tracks exactly the calls committed and neither released nor dropped
// in a handoff, and the stations carry exactly those.
func (r *metroRun) conserved() error {
	res := &r.result
	if want := res.Committed - res.Released - res.HandoffDropped; res.FinalActive != want {
		return fmt.Errorf("experiments: %d active calls, but %d committed - %d released - %d dropped in handoffs = %d",
			res.FinalActive, res.Committed, res.Released, res.HandoffDropped, want)
	}
	carried := 0
	for _, bs := range r.workload.stations {
		carried += bs.NumCalls()
	}
	if carried != res.FinalActive {
		return fmt.Errorf("experiments: stations carry %d calls, but the run tracks %d active", carried, res.FinalActive)
	}
	return nil
}
