package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// workload. All three paths consume the identical request stream; for
// cell-local controllers MetroBatch and MetroSharded (at any shard
// count) produce byte-identical outcomes at equal MaxBatch, and
// MetroSingle matches them at MaxBatch 1.
type MetropolisMode int

// Decision paths.
const (
	// MetroSingle decides one request at a time (the classic event-loop
	// path: decide, commit, next).
	MetroSingle MetropolisMode = iota + 1
	// MetroBatch decides MaxBatch-sized chunks against chunk-start
	// snapshots and commits per request in order — serve.Service's wave
	// semantics, inline.
	MetroBatch
	// MetroSharded routes waves through a shard.Engine with Commit mode
	// and the serialized handoff protocol.
	MetroSharded
)

// String implements fmt.Stringer.
func (m MetropolisMode) String() string {
	switch m {
	case MetroSingle:
		return "single"
	case MetroBatch:
		return "batch"
	case MetroSharded:
		return "sharded"
	default:
		return fmt.Sprintf("MetropolisMode(%d)", int(m))
	}
}

// MetropolisConfig parameterises the metropolis-scale workload: a
// city-sized hex deployment under one simulated day of diurnal traffic,
// with rush-hour mobility steered toward hot-spot cells.
type MetropolisConfig struct {
	// NewController builds the admission controller for one shard view;
	// inline modes receive shard.SingleView. Required.
	NewController func(v shard.View) (cac.Controller, error)
	// Mode selects the decision path (default MetroBatch).
	Mode MetropolisMode
	// Shards is the engine's decision-loop count for MetroSharded
	// (default 1).
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
	// DisableInterestScope keeps the all-to-all ghost fan-out for
	// MetroSharded (see shard.Config.DisableInterestScope).
	DisableInterestScope bool
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
	// StartHour is the local time of wave 0 in hours (default 5: the
	// run climbs into the morning rush).
	StartHour float64
	// Hotspots is the number of hot-spot cells attracting rush-hour
	// traffic (default 3).
	Hotspots int
	// HotspotSigmaCells is the Gaussian reach of a hotspot in hex rings
	// (default 3).
	HotspotSigmaCells float64
	// RushBias scales both the arrival skew toward hotspot cells and the
	// handoff steering during rush hours (default 2).
	RushBias float64
	// Mix is the class mix (default 60/30/10).
	Mix traffic.Mix
	// SpeedKmh samples user speeds (default Span{10, 80}).
	SpeedKmh Span
	// HoldWavesMin/HoldWavesMax bound the uniform call-duration draw in
	// waves (defaults 2 and 8).
	HoldWavesMin int
	HoldWavesMax int
	// HandoffEveryWaves runs a handoff round every so many waves
	// (default 2).
	HandoffEveryWaves int
	// HandoffFraction is the per-round probability that an active call
	// attempts a handoff (default 0.08).
	HandoffFraction float64
	// TickEveryWaves delivers a barrier OnTick every so many waves
	// (default 4).
	TickEveryWaves int
	// WaveIntervalSec advances simulation time per wave (default one
	// diurnal-clock wave: 86400 / WavesPerDay).
	WaveIntervalSec float64
	// MaxBatch is the decision chunk size for MetroBatch and
	// MetroSharded (default 256). MetroSingle always decides chunks of
	// one.
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
	if c.StartHour == 0 {
		c.StartHour = 5
	}
	if c.Hotspots == 0 {
		c.Hotspots = 3
	}
	if c.HotspotSigmaCells == 0 {
		c.HotspotSigmaCells = 3
	}
	if c.RushBias == 0 {
		c.RushBias = 2
	}
	if (c.Mix == traffic.Mix{}) {
		c.Mix = traffic.DefaultMix()
	}
	if (c.SpeedKmh == Span{}) {
		c.SpeedKmh = Span{Min: 10, Max: 80}
	}
	if c.HoldWavesMin == 0 {
		c.HoldWavesMin = 2
	}
	if c.HoldWavesMax == 0 {
		c.HoldWavesMax = 8
	}
	if c.HandoffEveryWaves == 0 {
		c.HandoffEveryWaves = 2
	}
	if c.HandoffFraction == 0 {
		c.HandoffFraction = 0.08
	}
	if c.TickEveryWaves == 0 {
		c.TickEveryWaves = 4
	}
	if c.WaveIntervalSec == 0 {
		c.WaveIntervalSec = 86400 / float64(c.WavesPerDay)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.CapacityBU == 0 {
		mean := c.Mix.MeanBU()
		cells := 1 + 3*c.Rings*(c.Rings+1)
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
	if c.Mode != MetroSingle && c.Mode != MetroBatch && c.Mode != MetroSharded {
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
	if c.Hotspots < 0 {
		return fmt.Errorf("experiments: Hotspots must be >= 0, got %d", c.Hotspots)
	}
	if c.HotspotSigmaCells <= 0 {
		return fmt.Errorf("experiments: HotspotSigmaCells must be > 0, got %v", c.HotspotSigmaCells)
	}
	if c.HoldWavesMin < 1 || c.HoldWavesMax < c.HoldWavesMin {
		return fmt.Errorf("experiments: need 1 <= HoldWavesMin <= HoldWavesMax, got %d/%d",
			c.HoldWavesMin, c.HoldWavesMax)
	}
	if c.HandoffEveryWaves < 1 || c.TickEveryWaves < 1 {
		return fmt.Errorf("experiments: HandoffEveryWaves and TickEveryWaves must be >= 1")
	}
	if c.HandoffFraction < 0 || c.HandoffFraction > 1 {
		return fmt.Errorf("experiments: HandoffFraction must be in [0, 1], got %v", c.HandoffFraction)
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
	if err := c.SpeedKmh.Validate(); err != nil {
		return err
	}
	return c.Mix.Validate()
}

// MetropolisResult aggregates one metropolis run.
type MetropolisResult struct {
	// ControllerName identifies the scheme under test.
	ControllerName string
	// Mode is the decision path; Shards the realised loop count
	// (1 for inline modes); Cells the deployment size; CapacityBU the
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
	// (CrossShard stays 0 for inline modes).
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

// metroOutcome is one admission outcome as hashed into DecisionHash.
type metroOutcome struct {
	accepted  bool
	committed bool
}

// metroEngine abstracts the three decision paths behind the wave loop.
type metroEngine interface {
	controllerName() (string, error)
	submitWave(reqs []cac.Request, out []metroOutcome) error
	release(id int, station *cell.BaseStation, now float64) error
	// handoff runs the two-phase transfer protocol and reports the
	// target-side outcome plus whether the transfer crossed shards.
	handoff(id int, class traffic.Class, bu int, from, to *cell.BaseStation, est gps.Estimate, now float64) (metroOutcome, bool, error)
	tick(now float64) error
	close() error
}

// inlineMetroEngine realises serve.Service's Commit-mode wave semantics
// sequentially: chunk at MaxBatch in request order, decide each chunk
// against its start snapshot, commit per request in order. With
// maxBatch 1 it is the single-loop path.
type inlineMetroEngine struct {
	ctrl     cac.Controller
	observer cac.Observer
	ticker   cac.Ticker
	maxBatch int
	scratch  [1]cac.Request
	// dec is the persistent decision buffer DecideAllInto fills: one
	// slot per chunk position, reused across chunks and waves.
	dec []cac.Decision
}

func newInlineMetroEngine(ctrl cac.Controller, maxBatch int) *inlineMetroEngine {
	e := &inlineMetroEngine{ctrl: ctrl, maxBatch: maxBatch, dec: make([]cac.Decision, maxBatch)}
	e.observer, _ = ctrl.(cac.Observer)
	e.ticker, _ = ctrl.(cac.Ticker)
	return e
}

func (e *inlineMetroEngine) controllerName() (string, error) { return e.ctrl.Name(), nil }

// commit applies one accepted decision exactly as serve.Service.finish:
// allocate on the station with the request's time and handoff flag, and
// notify observer controllers. A failed admit (bandwidth claimed by
// earlier accepts in the same chunk) leaves the request uncommitted.
func (e *inlineMetroEngine) commit(req cac.Request) bool {
	call := req.Call
	call.AdmittedAt = req.Now
	call.Handoff = req.Handoff
	if err := req.Station.Admit(call); err != nil {
		return false
	}
	if e.observer != nil {
		e.observer.OnAdmit(req)
	}
	return true
}

func (e *inlineMetroEngine) submitWave(reqs []cac.Request, out []metroOutcome) error {
	for lo := 0; lo < len(reqs); lo += e.maxBatch {
		hi := lo + e.maxBatch
		if hi > len(reqs) {
			hi = len(reqs)
		}
		chunk := reqs[lo:hi]
		if err := cac.DecideAllInto(e.ctrl, chunk, e.dec[:len(chunk)]); err != nil {
			return err
		}
		for i := range chunk {
			d := e.dec[i]
			out[lo+i] = metroOutcome{accepted: d.Accepted()}
			if d.Accepted() {
				out[lo+i].committed = e.commit(chunk[i])
			}
		}
	}
	return nil
}

func (e *inlineMetroEngine) release(id int, station *cell.BaseStation, now float64) error {
	// Mirror serve.Service.Release: a failed station release is counted
	// by the service, not fatal; observers hear the release either way.
	_, _ = station.Release(id)
	if e.observer != nil {
		e.observer.OnRelease(id, station, now)
	}
	return nil
}

func (e *inlineMetroEngine) handoff(id int, class traffic.Class, bu int, from, to *cell.BaseStation, est gps.Estimate, now float64) (metroOutcome, bool, error) {
	// Phase 1: release at the source (shard.Engine's protocol order).
	if _, err := from.Release(id); err != nil {
		return metroOutcome{}, false, err
	}
	if e.observer != nil {
		e.observer.OnRelease(id, from, now)
	}
	// Phase 2: target-side admission with handoff priority, a
	// single-request chunk exactly like the engine's SubmitAll. The
	// request and decision ride the engine's persistent scratch so the
	// two-phase protocol stays allocation-free.
	e.scratch[0] = cac.Request{
		Call:    cell.Call{ID: id, Class: class, BU: bu},
		Station: to,
		Obs:     gps.Observe(est, to.Pos()),
		Est:     est,
		Handoff: true,
		Now:     now,
	}
	err := cac.DecideAllInto(e.ctrl, e.scratch[:], e.dec[:1])
	req := e.scratch[0]
	e.scratch[0] = cac.Request{}
	if err != nil {
		return metroOutcome{}, false, err
	}
	d := e.dec[0]
	outcome := metroOutcome{accepted: d.Accepted()}
	if d.Accepted() {
		outcome.committed = e.commit(req)
	}
	return outcome, false, nil
}

func (e *inlineMetroEngine) tick(now float64) error {
	if e.ticker != nil {
		e.ticker.OnTick(now)
	}
	return nil
}

func (e *inlineMetroEngine) close() error { return nil }

// shardMetroEngine adapts shard.Engine to the wave loop. resp is the
// persistent response-scatter buffer SubmitWaveTo fills, grown once to
// the largest wave seen and reused thereafter.
type shardMetroEngine struct {
	engine *shard.Engine
	resp   []serve.Response
}

func (e *shardMetroEngine) controllerName() (string, error) {
	var name string
	err := e.engine.Do(0, func(ctrl cac.Controller) { name = ctrl.Name() })
	return name, err
}

func (e *shardMetroEngine) submitWave(reqs []cac.Request, out []metroOutcome) error {
	if cap(e.resp) < len(reqs) {
		e.resp = make([]serve.Response, len(reqs))
	}
	resps := e.resp[:len(reqs)]
	if err := e.engine.SubmitWaveTo(reqs, resps); err != nil {
		return err
	}
	for i, resp := range resps {
		if resp.Err != nil && !resp.Decision.Accepted() {
			return resp.Err
		}
		out[i] = metroOutcome{accepted: resp.Decision.Accepted(), committed: resp.Committed}
	}
	return nil
}

func (e *shardMetroEngine) release(id int, station *cell.BaseStation, now float64) error {
	return e.engine.Release(id, station, now)
}

func (e *shardMetroEngine) handoff(id int, class traffic.Class, bu int, from, to *cell.BaseStation, est gps.Estimate, now float64) (metroOutcome, bool, error) {
	res := e.engine.HandoffCall(shard.Handoff{CallID: id, From: from, To: to, Est: est, Now: now})
	if res.Err != nil {
		return metroOutcome{}, res.CrossShard, res.Err
	}
	return metroOutcome{
		accepted:  res.Response.Decision.Accepted(),
		committed: res.Response.Committed,
	}, res.CrossShard, nil
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

func (h *fnv1a) writeOutcome(kind byte, id int, o metroOutcome) {
	h.writeByte(kind)
	u := uint32(id)
	h.writeByte(byte(u))
	h.writeByte(byte(u >> 8))
	h.writeByte(byte(u >> 16))
	h.writeByte(byte(u >> 24))
	var bits byte
	if o.accepted {
		bits |= 1
	}
	if o.committed {
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

// metroWorkload precomputes the deterministic scenario shape: the
// diurnal arrival schedule, the hotspot proximity field, and the
// per-wave cell-choice distributions.
type metroWorkload struct {
	cfg      MetropolisConfig
	stations []*cell.BaseStation
	// stationIdx inverts the (Q, R) station order for handoff targets.
	stationIdx map[geo.Hex]int
	// prox is each cell's summed Gaussian proximity to the hotspots in
	// [0, Hotspots].
	prox []float64
	// arrivals is the scheduled arrival count per wave.
	arrivals []int
	// cellCum is the per-wave cumulative cell-choice distribution,
	// rebuilt from the rush profile only when the profile actually
	// moves (scratch buffer; see ensureCellCum).
	cellCum []float64
	// cellCumSkew is the hotspot skew cellCum was last built for;
	// cellCumOK reports whether cellCum holds any build at all.
	cellCumSkew float64
	cellCumOK   bool
	// mix is the cumulative class distribution.
	mixCum [3]float64
	// inradiusM bounds the position jitter inside a chosen cell.
	inradiusM float64
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
		cfg:        cfg,
		stations:   net.Stations(),
		stationIdx: make(map[geo.Hex]int, net.NumCells()),
		inradiusM:  cfg.CellRadiusM * math.Sqrt(3) / 2,
	}
	for i, bs := range w.stations {
		w.stationIdx[bs.Hex()] = i
	}
	// Hotspots: evenly spaced picks from the spiral order, skipping the
	// exact centre so the downtown cluster sits off-origin.
	hotspots := make([]geo.Hex, 0, cfg.Hotspots)
	for k := 1; k <= cfg.Hotspots; k++ {
		hotspots = append(hotspots, w.stations[(k*len(w.stations))/(cfg.Hotspots+1)].Hex())
	}
	w.prox = make([]float64, len(w.stations))
	sigma2 := 2 * cfg.HotspotSigmaCells * cfg.HotspotSigmaCells
	for i, bs := range w.stations {
		for _, h := range hotspots {
			d := float64(bs.Hex().DistanceTo(h))
			w.prox[i] += math.Exp(-d * d / sigma2)
		}
	}
	// Arrival schedule: the population integrates arrivals over the mean
	// hold, so arrivals-per-wave = diurnal x TargetCalls / meanHold puts
	// the concurrent population at the diurnal curve times TargetCalls.
	meanHold := float64(cfg.HoldWavesMin+cfg.HoldWavesMax) / 2
	w.arrivals = make([]int, cfg.Waves)
	for wave := range w.arrivals {
		w.arrivals[wave] = int(diurnal(w.hourOf(wave)) * float64(cfg.TargetCalls) / meanHold)
	}
	w.cellCum = make([]float64, len(w.stations))
	total := cfg.Mix.Text + cfg.Mix.Voice + cfg.Mix.Video
	w.mixCum[0] = cfg.Mix.Text / total
	w.mixCum[1] = w.mixCum[0] + cfg.Mix.Voice/total
	w.mixCum[2] = 1
	return w
}

func (w *metroWorkload) hourOf(wave int) float64 {
	return math.Mod(w.cfg.StartHour+24*float64(wave)/float64(w.cfg.WavesPerDay), 24)
}

// peakWave returns the wave with the largest scheduled population (the
// arrival sum over one mean hold), where MeasureMem snapshots the heap.
func (w *metroWorkload) peakWave() int {
	meanHold := (w.cfg.HoldWavesMin + w.cfg.HoldWavesMax) / 2
	if meanHold < 1 {
		meanHold = 1
	}
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

// ensureCellCum makes the cumulative cell-choice weights current for a
// wave: uniform base plus rush-scaled hotspot proximity. The weights
// depend on the wave only through the hotspot skew, so the rebuild is
// skipped whenever the skew repeats — every wave of a multi-day run
// after the first day (the diurnal clock wraps), and every wave when
// hotspots are disabled.
func (w *metroWorkload) ensureCellCum(wave int) {
	skew := w.cfg.RushBias * rushFactor(w.hourOf(wave))
	if w.cellCumOK && skew == w.cellCumSkew {
		return
	}
	cum := 0.0
	for i := range w.cellCum {
		cum += 1 + skew*w.prox[i]
		w.cellCum[i] = cum
	}
	w.cellCumSkew = skew
	w.cellCumOK = true
}

// sampleCell draws a station index from the wave's distribution.
func (w *metroWorkload) sampleCell(rng *rand.Rand) int {
	x := rng.Float64() * w.cellCum[len(w.cellCum)-1]
	lo, hi := 0, len(w.cellCum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cellCum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
	theta := 2 * math.Pi * rng.Float64()
	c := w.stations[si].Pos()
	return gps.Estimate{
		Pos:        geo.Point{X: c.X + r*math.Cos(theta), Y: c.Y + r*math.Sin(theta)},
		HeadingDeg: sim.Uniform(rng, -180, 180),
		SpeedKmh:   w.cfg.SpeedKmh.Sample(rng),
		Time:       now,
	}
}

// sampleHandoffTarget draws the neighbouring cell a moving call enters,
// steered along the hotspot gradient during rush hours: toward hotspots
// through the morning commute, away through the evening.
func (w *metroWorkload) sampleHandoffTarget(rng *rand.Rand, si int, wave int) (int, bool) {
	steer := w.cfg.RushBias * rushDirection(w.hourOf(wave))
	var weights [6]float64
	var targets [6]int
	n, total := 0, 0.0
	cur := w.prox[si]
	for _, nh := range w.stations[si].Hex().Neighbors() {
		ti, ok := w.stationIdx[nh]
		if !ok {
			continue
		}
		wt := math.Exp(steer * (w.prox[ti] - cur))
		weights[n] = wt
		targets[n] = ti
		n++
		total += wt
	}
	if n == 0 {
		return 0, false
	}
	x := rng.Float64() * total
	for i := 0; i < n; i++ {
		x -= weights[i]
		if x < 0 {
			return targets[i], true
		}
	}
	return targets[n-1], true
}

// RunMetropolis executes the metropolis-scale scenario: one simulated
// day (by default) of diurnal traffic over a city-sized hex deployment,
// with rush-hour mobility steered toward hot-spot cells, driven through
// the selected decision path. Outcomes are deterministic in the config:
// repeats produce identical DecisionHash values. For cell-local
// controllers the hash is additionally identical across every shard
// count and across batch/sharded modes at equal MaxBatch (MetroSingle
// matches at MaxBatch 1); non-cell-local controllers such as the SCC
// demand ledger are reproducible per shard count but legitimately
// diverge between shard counts.
func RunMetropolis(cfg MetropolisConfig) (MetropolisResult, error) {
	r, err := newMetroRun(cfg)
	if err != nil {
		return MetropolisResult{}, err
	}
	defer r.engine.close()
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
			if err := r.writeSnapshot(); err != nil {
				return MetropolisResult{}, err
			}
		}
	}
	if r.result.Stopped && r.cfg.SnapshotDir != "" {
		if err := r.writeSnapshot(); err != nil {
			return MetropolisResult{}, err
		}
	}
	r.result.Elapsed = time.Since(start) //facs:wallclock wall-time Elapsed metric only
	return r.finish()
}

// metroRun is the wave loop's live state, split out of RunMetropolis so
// tests can step individual waves (warm the scratch buffers through the
// population ramp, then gate steady-state allocations per wave).
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
	// Wave scratch, reused across waves: arrivals stream through it one
	// MaxBatch chunk at a time.
	reqs  []cac.Request
	outs  []metroOutcome
	holds []int
	cells []int

	nextID   int
	wave     int
	baseHeap uint64
	peakWave int
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
			Network:              net,
			Shards:               cfg.Shards,
			NewController:        cfg.NewController,
			MaxBatch:             cfg.MaxBatch,
			Commit:               true,
			Partition:            cfg.Partition,
			RebalanceEveryTicks:  cfg.RebalanceEveryTicks,
			Rebalance:            cfg.Rebalance,
			DisableInterestScope: cfg.DisableInterestScope,
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
		maxBatch := cfg.MaxBatch
		if cfg.Mode == MetroSingle {
			maxBatch = 1
		}
		engine = newInlineMetroEngine(ctrl, maxBatch)
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

	// Size the wave scratch once: a run never holds more than one
	// MaxBatch chunk of arrivals.
	r.reqs = make([]cac.Request, 0, cfg.MaxBatch)
	r.outs = make([]metroOutcome, cfg.MaxBatch)
	r.holds = make([]int, 0, cfg.MaxBatch)
	r.cells = make([]int, 0, cfg.MaxBatch)

	if cfg.MeasureMem {
		r.peakWave = r.workload.peakWave()
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		r.baseHeap = ms.HeapAlloc
	}
	return r, nil
}

// runWave advances the scenario by one wave: releases, the tick
// barrier, the handoff round, then the wave's arrivals.
//
//facs:hotpath
func (r *metroRun) runWave() error {
	cfg, workload, engine := r.cfg, r.workload, r.engine
	wave := r.wave
	now := float64(wave) * cfg.WaveIntervalSec

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
		keep = 0
		for i := 0; i < r.ledger.len(); i++ {
			if r.handoffRNG.Float64() >= cfg.HandoffFraction {
				if keep != i {
					r.ledger.set(keep, i)
				}
				keep++
				continue
			}
			si := int(r.ledger.station[i])
			ti, ok := workload.sampleHandoffTarget(r.handoffRNG, si, wave)
			if !ok {
				if keep != i {
					r.ledger.set(keep, i)
				}
				keep++
				continue
			}
			est := workload.sampleEstimate(r.handoffRNG, ti, now)
			outcome, crossShard, err := engine.handoff(
				int(r.ledger.id[i]), r.ledger.class[i], int(r.ledger.bu[i]),
				workload.stations[si], workload.stations[ti], est, now)
			if err != nil {
				return err
			}
			r.result.Handoffs++
			if crossShard {
				r.result.CrossShard++
			}
			r.hash.writeOutcome('H', int(r.ledger.id[i]), outcome)
			if !outcome.committed {
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

	// Arrivals: the wave's scheduled draw from the diurnal curve,
	// streamed through the engine seam one MaxBatch chunk at a time, so
	// a wave's footprint is O(MaxBatch) rather than O(arrivals).
	n := workload.arrivals[wave]
	workload.ensureCellCum(wave)
	for lo := 0; lo < n; lo += cfg.MaxBatch {
		m := cfg.MaxBatch
		if lo+m > n {
			m = n - lo
		}
		reqs, holds, cells := r.reqs[:0], r.holds[:0], r.cells[:0]
		for i := 0; i < m; i++ {
			si := workload.sampleCell(r.callRNG)
			class := workload.sampleClass(r.callRNG)
			est := workload.sampleEstimate(r.callRNG, si, now)
			bs := workload.stations[si]
			reqs = append(reqs, cac.Request{
				Call:    cell.Call{ID: r.nextID, Class: class, BU: class.BandwidthUnits()},
				Station: bs,
				Obs:     gps.Observe(est, bs.Pos()),
				Est:     est,
				Now:     now,
			})
			holds = append(holds, cfg.HoldWavesMin+r.callRNG.Intn(cfg.HoldWavesMax-cfg.HoldWavesMin+1))
			cells = append(cells, si)
			r.nextID++
		}
		if err := engine.submitWave(reqs, r.outs[:m]); err != nil {
			return err
		}
		for i := range reqs {
			o := r.outs[i]
			r.hash.writeOutcome('A', reqs[i].Call.ID, o)
			r.result.Requested++
			if o.accepted {
				r.result.Accepted++
			}
			if o.committed {
				r.result.Committed++
				r.ledger.push(reqs[i].Call.ID, reqs[i].Call.Class, reqs[i].Call.BU,
					cells[i], wave+holds[i])
			}
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

// finish closes the engine and returns the accumulated result.
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
	}
	if err := r.engine.close(); err != nil {
		return MetropolisResult{}, err
	}
	return r.result, nil
}
