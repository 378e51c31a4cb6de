package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/scc"
	"facs/internal/shard"
	"facs/internal/sim"
	"facs/internal/traffic"
)

// ShardedConfig parameterises the closed-loop sharded load generator:
// a multi-cell network partitioned across a shard.Engine, fed with
// waves of synthetic admission requests, where committed calls occupy
// their stations for a configurable number of waves, periodically hand
// off to neighbouring cells (crossing shards whenever the router says
// so), and time-driven controllers receive barrier ticks.
//
// Determinism follows the engine's contract: every request, release,
// tick and handoff is derived from Seed in a fixed order, waves travel
// shard.Engine.SubmitWave (chunked at MaxBatch boundaries in global
// order, never by timing), and handoffs are serialized through the
// engine's FIFO protocol queue — so for cell-local controllers two
// runs with equal configs produce byte-identical decision and handoff
// streams for EVERY shard count (the sharded determinism suite pins
// shard counts 1/2/4/8 against an inline sequential replay).
type ShardedConfig struct {
	// NewController builds the controller for one shard. Required.
	NewController func(v shard.View) (cac.Controller, error)
	// Shards is the engine's decision-loop count (default 1; capped at
	// the cell count).
	Shards int
	// Rings is the network size (default 2: nineteen cells).
	Rings int
	// CellRadiusM is the hex cell radius (default 1500 m).
	CellRadiusM float64
	// CapacityBU is the per-station bandwidth (default 40).
	CapacityBU int
	// Requests is the total number of streamed requests. Required.
	Requests int
	// Wave is the closed-loop window: requests submitted per wave
	// (default 64).
	Wave int
	// MaxBatch is the engine chunk size (default Wave).
	MaxBatch int
	// MaxDelay is the per-shard batching delay (default the serve
	// package default; it cannot change outcomes, only latency).
	MaxDelay time.Duration
	// HoldWaves is how many waves a committed call occupies its station
	// before release (default 4).
	HoldWaves int
	// HandoffEveryWaves runs a handoff round every so many waves
	// (default 2).
	HandoffEveryWaves int
	// HandoffFraction is the probability that an active call joins a
	// handoff round, moving to a uniformly drawn neighbouring cell
	// (default 0.25).
	HandoffFraction float64
	// TickEveryWaves delivers a barrier OnTick to every shard every so
	// many waves (default 8).
	TickEveryWaves int
	// WaveIntervalSec advances simulation time per wave (default 1 s).
	WaveIntervalSec float64
	// Mix is the class mix (default 60/30/10).
	Mix traffic.Mix
	// SpeedKmh samples user speeds (default Span{10, 80}).
	SpeedKmh Span
	// Seed drives all randomness.
	Seed int64
	// DisableExchange turns off the engine's tick-barrier ghost-demand
	// exchange for demand-exchanging controllers (see
	// shard.Config.DisableExchange) — the pre-exchange partitioned-
	// visibility model, used by the divergence measurements.
	DisableExchange bool
	// Partition selects the initial station-to-shard layout (see
	// shard.Config.Partition; default round-robin).
	Partition shard.Partition
	// RebalanceEveryTicks enables elastic rebalancing every so many
	// tick barriers (see shard.Config.RebalanceEveryTicks; default 0 =
	// static partition).
	RebalanceEveryTicks int
	// Rebalance bounds the planner when rebalancing is enabled.
	Rebalance shard.PlannerConfig
	// DisableInterestScope keeps the all-to-all ghost fan-out (see
	// shard.Config.DisableInterestScope).
	DisableInterestScope bool
}

func (c ShardedConfig) withDefaults() ShardedConfig {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Rings == 0 {
		c.Rings = 2
	}
	if c.CellRadiusM == 0 {
		c.CellRadiusM = 1500
	}
	if c.CapacityBU == 0 {
		c.CapacityBU = cell.DefaultCapacityBU
	}
	if c.Wave == 0 {
		c.Wave = 64
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = c.Wave
	}
	if c.HoldWaves == 0 {
		c.HoldWaves = 4
	}
	if c.HandoffEveryWaves == 0 {
		c.HandoffEveryWaves = 2
	}
	if c.HandoffFraction == 0 {
		c.HandoffFraction = 0.25
	}
	if c.TickEveryWaves == 0 {
		c.TickEveryWaves = 8
	}
	if c.WaveIntervalSec == 0 {
		c.WaveIntervalSec = 1
	}
	if (c.Mix == traffic.Mix{}) {
		c.Mix = traffic.DefaultMix()
	}
	if (c.SpeedKmh == Span{}) {
		c.SpeedKmh = Span{Min: 10, Max: 80}
	}
	return c
}

// Validate checks the configuration.
func (c ShardedConfig) Validate() error {
	if c.NewController == nil {
		return fmt.Errorf("experiments: sharded config needs a controller factory")
	}
	if c.Shards < 1 {
		return fmt.Errorf("experiments: Shards must be >= 1, got %d", c.Shards)
	}
	if c.Requests <= 0 {
		return fmt.Errorf("experiments: Requests must be > 0, got %d", c.Requests)
	}
	if c.Wave < 1 {
		return fmt.Errorf("experiments: Wave must be >= 1, got %d", c.Wave)
	}
	if c.HoldWaves < 1 {
		return fmt.Errorf("experiments: HoldWaves must be >= 1, got %d", c.HoldWaves)
	}
	if c.HandoffEveryWaves < 1 {
		return fmt.Errorf("experiments: HandoffEveryWaves must be >= 1, got %d", c.HandoffEveryWaves)
	}
	if c.HandoffFraction < 0 || c.HandoffFraction > 1 {
		return fmt.Errorf("experiments: HandoffFraction must be in [0, 1], got %v", c.HandoffFraction)
	}
	if c.TickEveryWaves < 1 {
		return fmt.Errorf("experiments: TickEveryWaves must be >= 1, got %d", c.TickEveryWaves)
	}
	if err := c.SpeedKmh.Validate(); err != nil {
		return err
	}
	return c.Mix.Validate()
}

// ShardedResult aggregates one closed-loop sharded run.
type ShardedResult struct {
	// ControllerName identifies the scheme under test (shard 0's
	// instance).
	ControllerName string
	// Shards is the realised decision-loop count; CellLocal reports
	// that outcomes are provably shard-count-invariant.
	Shards    int
	CellLocal bool
	// Requested / Accepted / Committed count streamed decisions;
	// Released counts closed-loop retirements.
	Requested, Accepted, Committed, Released int
	// Waves is the number of submitted waves.
	Waves int
	// Handoffs counts attempted transfers; CrossShard the subset that
	// crossed shards; HandoffDropped the transfers whose target did not
	// commit (the call is lost).
	Handoffs, CrossShard, HandoffDropped int
	// Decisions holds per-request outcomes in stream order;
	// HandoffDecisions the target-side outcomes in handoff order.
	Decisions        []cac.Decision
	HandoffDecisions []cac.Decision
	// ByClass tallies requested/accepted decisions per traffic class.
	// Summary printers must render it in sorted class order.
	ByClass map[traffic.Class]ClassTally
	// Stats is the engine-side counter snapshot after drain.
	Stats shard.Stats
	// Ledgers holds one scc.LedgerStats per shard when the controllers
	// are SCC demand ledgers (snapshotted through the engine's Do
	// barrier before shutdown, in shard order); nil otherwise. It is the
	// served-run observability surface for the guard-band fallback,
	// rebuild and ghost-exchange counters.
	Ledgers []scc.LedgerStats
}

// LedgerTotal aggregates the per-shard ledger snapshots; the zero value
// when the run's controllers were not SCC ledgers.
func (r ShardedResult) LedgerTotal() scc.LedgerStats {
	var total scc.LedgerStats
	for _, st := range r.Ledgers {
		total = total.Add(st)
	}
	return total
}

// AcceptedPct returns 100 * accepted / requested.
func (r ShardedResult) AcceptedPct() float64 {
	if r.Requested == 0 {
		return 0
	}
	return 100 * float64(r.Accepted) / float64(r.Requested)
}

// shardedCall tracks one committed call until release or handoff loss.
type shardedCall struct {
	releaseWave int
	id          int
	station     *cell.BaseStation
	est         gps.Estimate
}

// sampleHandoffEstimate draws the post-handoff kinematics: a position
// inside the target cell with fresh heading and speed.
func sampleHandoffEstimate(rng *rand.Rand, target *cell.BaseStation, cfg ShardedConfig) gps.Estimate {
	return gps.Estimate{
		Pos: geo.Point{
			X: target.Pos().X + sim.Uniform(rng, -cfg.CellRadiusM/2, cfg.CellRadiusM/2),
			Y: target.Pos().Y + sim.Uniform(rng, -cfg.CellRadiusM/2, cfg.CellRadiusM/2),
		},
		HeadingDeg: sim.Uniform(rng, -180, 180),
		SpeedKmh:   cfg.SpeedKmh.Sample(rng),
	}
}

// RunSharded drives a shard.Engine with the closed-loop workload
// described by cfg and returns the deterministic decision and handoff
// streams plus engine statistics. The engine owns station state
// (Commit mode); releases, barrier ticks and the serialized handoff
// protocol all flow through it, so per-station call lifecycles are
// exactly what a single sequential controller would see.
func RunSharded(cfg ShardedConfig) (ShardedResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return ShardedResult{}, err
	}
	net, err := cell.NewNetwork(cell.NetworkConfig{
		Rings:       cfg.Rings,
		CellRadiusM: cfg.CellRadiusM,
		CapacityBU:  cfg.CapacityBU,
	})
	if err != nil {
		return ShardedResult{}, err
	}
	engine, err := shard.New(shard.Config{
		Network:              net,
		Shards:               cfg.Shards,
		NewController:        cfg.NewController,
		MaxBatch:             cfg.MaxBatch,
		MaxDelay:             cfg.MaxDelay,
		Commit:               true,
		DisableExchange:      cfg.DisableExchange,
		Partition:            cfg.Partition,
		RebalanceEveryTicks:  cfg.RebalanceEveryTicks,
		Rebalance:            cfg.Rebalance,
		DisableInterestScope: cfg.DisableInterestScope,
	})
	if err != nil {
		return ShardedResult{}, err
	}
	defer engine.Close()

	sampleCfg := BatchAdmissionConfig{
		Rings:       cfg.Rings,
		CellRadiusM: cfg.CellRadiusM,
		CapacityBU:  cfg.CapacityBU,
		Mix:         cfg.Mix,
		SpeedKmh:    cfg.SpeedKmh,
	}
	rng := sim.NewStream(cfg.Seed, "sharded")

	result := ShardedResult{
		Shards:    engine.Shards(),
		CellLocal: engine.CellLocal(),
		Decisions: make([]cac.Decision, 0, cfg.Requests),
		ByClass:   map[traffic.Class]ClassTally{},
	}
	if err := engine.Do(0, func(ctrl cac.Controller) { result.ControllerName = ctrl.Name() }); err != nil {
		return ShardedResult{}, err
	}

	var active []shardedCall
	now := 0.0
	reqs := make([]cac.Request, 0, cfg.Wave)
	for wave := 0; result.Requested < cfg.Requests; wave++ {
		// Retire calls due this wave, strictly before handoffs and new
		// admissions.
		keep := active[:0]
		for _, c := range active {
			if c.releaseWave <= wave {
				if err := engine.Release(c.id, c.station, now); err != nil {
					return ShardedResult{}, err
				}
				result.Released++
			} else {
				keep = append(keep, c)
			}
		}
		active = keep
		if wave > 0 && wave%cfg.TickEveryWaves == 0 {
			if err := engine.Tick(now); err != nil {
				return ShardedResult{}, err
			}
		}

		// Handoff round: a seeded subset of the surviving calls moves to
		// a neighbouring cell through the serialized two-phase protocol.
		if wave > 0 && wave%cfg.HandoffEveryWaves == 0 {
			keep = active[:0]
			for i := range active {
				c := active[i]
				if rng.Float64() >= cfg.HandoffFraction {
					keep = append(keep, c)
					continue
				}
				neighbors := net.Neighbors(c.station.Hex())
				if len(neighbors) == 0 {
					keep = append(keep, c)
					continue
				}
				target := neighbors[rng.Intn(len(neighbors))]
				est := sampleHandoffEstimate(rng, target, cfg)
				res := engine.HandoffCall(shard.Handoff{
					CallID: c.id, From: c.station, To: target, Est: est, Now: now,
				})
				if res.Err != nil {
					return ShardedResult{}, res.Err
				}
				result.Handoffs++
				if res.CrossShard {
					result.CrossShard++
				}
				result.HandoffDecisions = append(result.HandoffDecisions, res.Response.Decision)
				if res.Dropped() {
					result.HandoffDropped++
					continue // the call is lost; the source released it
				}
				c.station = target
				c.est = est
				keep = append(keep, c)
			}
			active = keep
		}

		k := cfg.Wave
		if remaining := cfg.Requests - result.Requested; k > remaining {
			k = remaining
		}
		reqs = reqs[:0]
		for i := 0; i < k; i++ {
			req, err := sampleBatchRequest(rng, net, sampleCfg, result.Requested+i+1)
			if err != nil {
				return ShardedResult{}, err
			}
			req.Now = now
			reqs = append(reqs, req)
		}
		responses, err := engine.SubmitWave(reqs)
		if err != nil {
			return ShardedResult{}, err
		}
		for i, resp := range responses {
			if resp.Err != nil && !resp.Decision.Accepted() {
				return ShardedResult{}, resp.Err
			}
			result.Decisions = append(result.Decisions, resp.Decision)
			tallyClass(result.ByClass, reqs[i].Call.Class, resp.Decision.Accepted())
			if resp.Decision.Accepted() {
				result.Accepted++
			}
			if resp.Committed {
				result.Committed++
				active = append(active, shardedCall{
					releaseWave: wave + cfg.HoldWaves,
					id:          reqs[i].Call.ID,
					station:     reqs[i].Station,
					est:         reqs[i].Est,
				})
			}
		}
		result.Requested += k
		result.Waves++
		now += cfg.WaveIntervalSec
	}
	// Snapshot per-shard ledger counters through the Do barrier while
	// the engine is still live (Close would make them unreachable).
	for s := 0; s < engine.Shards(); s++ {
		if err := engine.Do(s, func(ctrl cac.Controller) {
			if l, ok := ctrl.(*scc.Ledger); ok {
				result.Ledgers = append(result.Ledgers, l.Snapshot())
			}
		}); err != nil {
			return ShardedResult{}, err
		}
	}
	if err := engine.Close(); err != nil {
		return ShardedResult{}, err
	}
	result.Stats = engine.Stats()
	return result, nil
}

// RunShardedSweep runs the identical closed-loop workload once per
// shard count, returning results in input order — the scaling sweep
// behind `facs-serve -loadgen -shards`. For cell-local controllers the
// decision and handoff streams of every entry are byte-identical; only
// the wall-clock and the cross-shard handoff split change.
func RunShardedSweep(cfg ShardedConfig, shardCounts []int) ([]ShardedResult, error) {
	if len(shardCounts) == 0 {
		return nil, fmt.Errorf("experiments: sweep needs at least one shard count")
	}
	out := make([]ShardedResult, 0, len(shardCounts))
	for _, n := range shardCounts {
		run := cfg
		run.Shards = n
		res, err := RunSharded(run)
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep at %d shards: %w", n, err)
		}
		out = append(out, res)
	}
	return out, nil
}
