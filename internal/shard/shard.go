package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/serve"
)

// View is the slice of the network one shard owns: the stations whose
// admission and release traffic this shard serializes. It is handed to
// Config.NewController so factories can build per-shard controller
// instances (or return one shared, concurrency-safe instance). Under
// elastic rebalancing the owned set changes at epoch boundaries, so the
// view a factory received describes epoch 0 (factories that need
// per-station state should size it off View.Network, which is
// epoch-invariant).
type View struct {
	index    int
	network  *cell.Network
	stations []*cell.BaseStation
}

// Index returns the shard number in [0, Engine.Shards()).
func (v View) Index() int { return v.index }

// Network returns the full deployment (shared by all shards); shard
// controllers may read its immutable geometry but must treat stations
// outside Stations() as foreign.
func (v View) Network() *cell.Network { return v.network }

// Stations returns the stations owned by this shard, in the network's
// deterministic (Q, R) order.
func (v View) Stations() []*cell.BaseStation { return v.stations }

// NumCells returns the number of owned stations.
func (v View) NumCells() int { return len(v.stations) }

// SingleView returns the view a 1-shard engine hands its controller
// factory: the whole network. Sequential replay oracles and front ends
// use it to build exactly the controller a 1-shard engine would.
func SingleView(net *cell.Network) View {
	return View{index: 0, network: net, stations: net.Stations()}
}

// Partition selects the deterministic initial station-to-shard
// assignment over the network's (Q, R) station order.
type Partition int

const (
	// PartitionRoundRobin assigns station i to shard i mod N — the
	// historical default. Interleaving neighbouring cells across shards
	// balances spatially concentrated load, at the price of every shard
	// being interested in most of the map (interest-scoped fan-out
	// degenerates toward all-to-all).
	PartitionRoundRobin Partition = iota
	// PartitionBlocks assigns contiguous ranges of the station order
	// (station i to shard i*N/cells): each shard owns a spatially
	// coherent band of the deployment, which is what makes
	// interest-scoped ghost fan-out sparse — a shard's cluster
	// neighbourhood stays mostly within its own band.
	PartitionBlocks
)

// ParsePartition maps the -partition flag both binaries share to its
// layout: roundrobin or blocks.
func ParsePartition(name string) (Partition, error) {
	switch name {
	case "roundrobin":
		return PartitionRoundRobin, nil
	case "blocks":
		return PartitionBlocks, nil
	}
	return 0, fmt.Errorf("unknown -partition %q (roundrobin, blocks)", name)
}

// Config parameterises an Engine.
type Config struct {
	// Network is the deployment whose cells are partitioned. Required.
	Network *cell.Network

	// Shards is the number of shards. Zero selects
	// min(GOMAXPROCS, cells); any value is capped at the cell count
	// (an empty shard could never receive traffic).
	Shards int

	// NewController builds the admission controller for one shard.
	// Stateful controllers (e.g. the SCC ledger) must return a fresh
	// instance per call — each instance is only ever called under its
	// shard's lock; concurrency-safe cell-local controllers (FACS
	// exact or compiled, the classical baselines) may return one shared
	// instance. Required.
	NewController func(v View) (cac.Controller, error)

	// MaxBatch is the engine's chunk size: SubmitWaveTo splits a wave at
	// MaxBatch boundaries in global request order BEFORE routing, with
	// a cross-shard barrier between chunks, so chunk boundaries — and
	// therefore outcomes — are identical for every shard count
	// (default serve.DefaultMaxBatch). It also caps the micro-batches
	// the intake coalesces from SubmitAsync singles.
	MaxBatch int

	// MaxDelay bounds how long the intake waits for SubmitAsync
	// singles to coalesce (default serve.DefaultMaxDelay; negative:
	// never wait); it cannot change wave outcomes, only single-submit
	// latency.
	MaxDelay time.Duration

	// Commit makes each shard the owner of its stations' allocation
	// state, with serve.Config.Commit's semantics. Handoffs require it.
	Commit bool

	// Partition selects the initial ownership layout (default
	// PartitionRoundRobin, the historical assignment).
	Partition Partition

	// RebalanceEveryTicks enables elastic shard rebalancing: every N
	// Tick barriers the engine snapshots its per-cell load counters
	// (decisions routed since the last epoch plus current occupancy),
	// runs the deterministic PlanRebalance planner, migrates the
	// planned cells — station call slots and controller state move
	// between shards inside the barrier, under the shard locks — and
	// publishes a new ownership epoch. 0 (the default)
	// keeps the static partition. Rebalancing requires every controller
	// to be cac.CellLocal or a cac.CellMigrator; exchanging controllers
	// must additionally implement cac.ExchangeResetter so their ghost
	// state can be re-seeded under the new ownership.
	RebalanceEveryTicks int

	// Rebalance bounds the planner (moves per epoch, imbalance
	// tolerance); see PlannerConfig.
	Rebalance PlannerConfig
}

// Handoff describes one call transfer between cells: release the call
// at From, then ask the admission controller owning To whether the
// target cell accepts it (with handoff priority). From and To may live
// on the same shard or different ones; the engine serializes either
// case identically.
type Handoff struct {
	// CallID identifies the carried call at From.
	CallID int
	// From is the station currently carrying the call.
	From *cell.BaseStation
	// To is the station the call is moving into.
	To *cell.BaseStation
	// Est is the user's latest kinematic estimate, consumed by the
	// target-side admission decision.
	Est gps.Estimate
	// Now is the simulation time of the handoff.
	Now float64
}

// HandoffResult is the outcome of one handoff.
type HandoffResult struct {
	// Response is the target shard's admission outcome. The call
	// survives the handoff only when Response.Committed is set; an
	// accepted-but-uncommitted or rejected handoff is a drop (the
	// source side has already released — the mobile left that cell's
	// coverage regardless).
	Response serve.Response
	// CrossShard reports that source and target live on different
	// shards.
	CrossShard bool
	// Err carries a protocol failure: unknown call at the source,
	// unroutable station, or a closed engine. When Err is non-nil
	// nothing was released and the target decision never ran.
	Err error
}

// Dropped reports that the call did not survive the handoff.
func (r HandoffResult) Dropped() bool { return r.Err != nil || !r.Response.Committed }

// waveRoute is one shard's persistent wave-scatter state: the chunk
// positions routed to the shard, the gathered requests, and the
// response buffer its slice is decided into. One chunk holds at most
// MaxBatch requests, so the buffers are sized once at construction and
// never grow in steady state.
type waveRoute struct {
	idx  []int
	reqs []cac.Request
	out  []serve.Response
}

// bitset is a dense cell-index set (interest sets).
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// cellGrid maps a hex to its dense station index (network (Q, R)
// order) through a table over the deployment's bounding box: routing
// every request, release and handoff costs an index computation, not a
// map lookup.
type cellGrid struct {
	q0, r0, cols, rows int
	idx                []int32 // -1: no station at that hex
}

func newCellGrid(stations []*cell.BaseStation) cellGrid {
	if len(stations) == 0 {
		return cellGrid{}
	}
	h0 := stations[0].Hex()
	qMin, qMax, rMin, rMax := h0.Q, h0.Q, h0.R, h0.R
	for _, bs := range stations {
		h := bs.Hex()
		qMin, qMax = min(qMin, h.Q), max(qMax, h.Q)
		rMin, rMax = min(rMin, h.R), max(rMax, h.R)
	}
	g := cellGrid{q0: qMin, r0: rMin, cols: qMax - qMin + 1, rows: rMax - rMin + 1}
	g.idx = make([]int32, g.cols*g.rows)
	for i := range g.idx {
		g.idx[i] = -1
	}
	for i, bs := range stations {
		g.idx[(bs.Hex().Q-qMin)*g.rows+bs.Hex().R-rMin] = int32(i)
	}
	return g
}

// index returns h's dense station index, or false for a hex outside the
// deployment.
func (g *cellGrid) index(h geo.Hex) (int32, bool) {
	q, r := h.Q-g.q0, h.R-g.r0
	if uint(q) >= uint(g.cols) || uint(r) >= uint(g.rows) {
		return 0, false
	}
	ci := g.idx[q*g.rows+r]
	return ci, ci >= 0
}

// ownership is one immutable epoch of the cell-to-shard assignment.
// The engine swaps a fresh snapshot atomically at each rebalance, so
// routers (which may run concurrently with the barrier in free-running
// mode) always read a consistent map without locks.
type ownership struct {
	// epoch counts applied rebalances; 0 is the initial partition.
	epoch uint64
	// owner maps dense station index (network (Q, R) order) to shard.
	owner []int32
	// views are the per-shard owned-station slices for this epoch.
	views []View
	// interest[s] is the set of dense cell indices shard s's decisions
	// may read (its owned cells dilated by the exchangers' interest
	// radius); nil when the exchange is unscoped (all-to-all).
	interest []bitset
}

// Stats aggregates engine counters with the per-shard decision
// counters.
type Stats struct {
	// Shards is the number of shards.
	Shards int
	// CellLocal reports that every shard controller declared
	// cac.CellLocal, i.e. outcomes are provably shard-count-invariant.
	CellLocal bool
	// Total is the field-wise aggregation of PerShard: counters sum,
	// MaxBatch/MaxLatency take the maximum, AvgLatency is weighted by
	// decided requests and the latency histogram (and so the
	// percentiles) merges (serve.Stats.Merge).
	Total serve.Stats
	// PerShard holds one counter snapshot per shard, in serve.Stats
	// terms: every chunk slice (and handoff admission) a shard decides
	// is one batch, and releases, ticks and Do calls are
	// its ops. Waves are counted engine-wide (Waves below), not per
	// shard.
	PerShard []serve.Stats
	// Waves counts engine-level SubmitWaveTo calls.
	Waves int64
	// Handoffs counts completed release-and-readmit protocols;
	// CrossShard the subset spanning two shards; Drops the handoffs
	// whose target did not commit; Errs the protocol failures (unknown
	// call, unroutable station).
	Handoffs, CrossShard, Drops, Errs int64
	// FanOuts counts the goroutines SubmitWaveTo started: one per owning
	// shard beyond the first in every chunk spanning several shards
	// (the first slice is decided on the caller's goroutine).
	FanOuts int64
	// Exchanges counts tick-barrier ghost-demand exchange rounds;
	// GhostRows the (cell, interval) demand rows actually applied on
	// sibling shards across them. GhostRowsAllToAll is what an
	// unscoped fan-out would have applied (every exported row on every
	// other shard): with interest scoping active GhostRows <=
	// GhostRowsAllToAll, without it they are equal. All stay zero for
	// cell-local controllers.
	Exchanges, GhostRows, GhostRowsAllToAll int64
	// InterestScoped reports that exchange rows route by interest sets
	// instead of all-to-all.
	InterestScoped bool
	// Epoch is the current ownership version (applied rebalances since
	// construction); Rebalances counts epochs that actually migrated at
	// least one cell, Migrations the cells moved, MigratedCalls the
	// carried calls that moved with them.
	Epoch                                 uint64
	Rebalances, Migrations, MigratedCalls int64
}

// String renders a one-line operator summary.
func (s Stats) String() string {
	out := fmt.Sprintf("%d shards: %s; handoffs %d (%d cross-shard, %d dropped, %d errors)",
		s.Shards, s.Total, s.Handoffs, s.CrossShard, s.Drops, s.Errs)
	if s.Exchanges > 0 {
		out += fmt.Sprintf("; ghost exchanges %d (%d rows", s.Exchanges, s.GhostRows)
		if s.InterestScoped {
			out += fmt.Sprintf(" of %d all-to-all", s.GhostRowsAllToAll)
		}
		out += ")"
	}
	if s.Rebalances > 0 {
		out += fmt.Sprintf("; rebalances %d (epoch %d, %d cells, %d calls moved)",
			s.Rebalances, s.Epoch, s.Migrations, s.MigratedCalls)
	}
	return out
}

// shardState is one shard: a serve.Core — its controller, decision
// scratch and counters — guarded by mu. Whatever touches the shard's
// controller or the stations it owns — deciding and committing a chunk
// slice, releasing, ticking, exchanging, migrating — runs under mu on
// the goroutine that asked for it.
type shardState struct {
	mu   sync.Mutex
	core *serve.Core
}

// Engine is the horizontally sharded admission engine: the network's
// cells are partitioned across N shards, each holding its own
// controller behind its own lock, with a deterministic router mapping
// every station to its owner shard. There is no goroutine per shard:
// every operation runs directly on the goroutine that calls it, under
// the lock of each shard it touches (several locks are always taken in
// shard order). SubmitWaveTo decides one owning shard's slice of each
// chunk on the caller and fans the other owning shards' slices out to
// goroutines; SubmitAsync singles coalesce through one
// intake goroutine (serve.Intake) into micro-batches decided the same
// way.
//
// Determinism contract: a station's traffic is serialized by exactly
// one shard in submission order, and SubmitWaveTo chunks waves at
// MaxBatch boundaries in global request order before routing, with a
// barrier between chunks. For controllers declaring cac.CellLocal
// (whose decisions read only the request's own station), every
// per-request outcome — decision, committed flag, commit error — is
// therefore byte-identical for every shard count, including the
// 1-shard engine and an inline sequential replay. Controllers that
// track cross-cell state (the SCC family) implement
// cac.DemandExchanger instead: the engine restores their global demand
// visibility through the ghost-demand exchange hosted by the Tick
// barrier, making tick-aligned runs byte-identical to a sequential
// single-ledger replay and bounding free-running divergence to
// intra-epoch admissions; see the package documentation.
//
// Ordering contract: Release, Do, Tick, Flush, SubmitWaveTo
// and HandoffCall first drain the intake, so each is ordered after
// every single already enqueued — in particular after the caller's own
// earlier SubmitAsync calls. With nothing pending the drain is one
// counter load.
//
// Elastic ownership: the cell-to-shard map is an immutable epoch
// snapshot behind an atomic pointer. With RebalanceEveryTicks set, the
// Tick barrier periodically plans (PlanRebalance, a pure function of
// the per-cell load counters) and applies cell migrations — station
// call slots detach from the old owner and attach on the new one,
// controller state moves through cac.CellMigrator, ghost state
// re-seeds through cac.ExchangeResetter — then publishes the next
// epoch. The whole epoch runs with every shard lock held, so the
// replay contracts above survive rebalancing unchanged: for cell-local
// controllers a migration changes only which shard serializes a
// station's (unchanged) request stream.
//
// Handoffs run the two-phase protocol on the caller, one at a time
// under one mutex: release on the source shard, then admit on the
// target shard, so source-release-before-target-admit ordering holds
// for every shard count and interleaving.
type Engine struct {
	cfg       Config
	stations  []*cell.BaseStation
	hexes     []geo.Hex
	cells     cellGrid
	shards    []*shardState
	cellLocal bool
	// own is the current ownership epoch, swapped whole at rebalances.
	own atomic.Pointer[ownership]
	// exchangers holds each shard's controller as a cac.DemandExchanger
	// when every shard got a distinct exchanger instance (and the
	// exchange was not disabled); nil otherwise. Index-aligned with
	// shards.
	exchangers []cac.DemandExchanger
	// interestRadius is the hex-ring dilation of a shard's owned cells
	// that covers every cell its decisions may read; -1 keeps the
	// all-to-all fan-out.
	interestRadius int
	// rebalanceErr is nil when the controller set supports rebalancing
	// (every controller CellLocal or CellMigrator, exchangers also
	// ExchangeResetter); otherwise it names the first offender.
	rebalanceErr error

	// cellLoad counts decisions routed per dense cell index since the
	// last epoch (accessed atomically: waves, intake batches and
	// handoffs all count concurrently).
	cellLoad []int64
	loadBuf  []float64

	// intake coalesces SubmitAsync singles into micro-batches on
	// its own goroutine.
	intake *serve.Intake

	// waveMu serializes chunk decisions (SubmitWaveTo and intake batches)
	// so the per-shard routing and response-scatter buffers below are
	// reused across chunks instead of rebuilt per call. Waves from
	// concurrent callers queue on the mutex — their relative order was
	// already scheduling-dependent, so serializing them changes no
	// determinism contract. fanWG joins a chunk's fan-out goroutines.
	waveMu     sync.Mutex
	waveRoutes []waveRoute
	fanWG      sync.WaitGroup

	// handoffMu serializes handoffs, each run to completion.
	handoffMu sync.Mutex

	// Migration scratch, touched only inside rebalance (all shard locks
	// held).
	migCalls []cell.Call
	migRows  []cac.MigratedCall
	// Exchange scratch, touched only inside exchangeDemand (serialized
	// by the Tick caller's contract): deltas[s] is shard s's export,
	// scoped the receive buffer for interest-filtered rows.
	deltas []cac.DemandDelta
	scoped []cac.DemandRow

	waves         atomic.Int64
	fanOuts       atomic.Int64
	handoffCount  atomic.Int64
	crossShard    atomic.Int64
	drops         atomic.Int64
	handoffErrs   atomic.Int64
	exchanges     atomic.Int64
	ghostRows     atomic.Int64
	ghostRowsAll  atomic.Int64
	ticks         atomic.Int64
	rebalances    atomic.Int64
	migrations    atomic.Int64
	migratedCalls atomic.Int64
}

// New validates the configuration, partitions the network, builds one
// controller per shard, starts the intake goroutine, and returns the
// live engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("shard: config needs a network")
	}
	if cfg.NewController == nil {
		return nil, fmt.Errorf("shard: config needs a controller factory")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("shard: Shards must be >= 0, got %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if n := cfg.Network.NumCells(); cfg.Shards > n {
		cfg.Shards = n
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = serve.DefaultMaxBatch
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("shard: MaxBatch must be >= 1, got %d", cfg.MaxBatch)
	}
	if cfg.Partition != PartitionRoundRobin && cfg.Partition != PartitionBlocks {
		return nil, fmt.Errorf("shard: unknown partition strategy %d", cfg.Partition)
	}
	if cfg.RebalanceEveryTicks < 0 {
		return nil, fmt.Errorf("shard: RebalanceEveryTicks must be >= 0, got %d", cfg.RebalanceEveryTicks)
	}

	stations := cfg.Network.Stations()
	e := &Engine{
		cfg:            cfg,
		stations:       stations,
		hexes:          make([]geo.Hex, len(stations)),
		cells:          newCellGrid(stations),
		shards:         make([]*shardState, 0, cfg.Shards),
		interestRadius: -1,
		cellLoad:       make([]int64, len(stations)),
		loadBuf:        make([]float64, len(stations)),
		cellLocal:      true,
	}
	for i, bs := range stations {
		e.hexes[i] = bs.Hex()
	}
	// Epoch 0: the deterministic initial partition over the network's
	// (Q, R) station order.
	owner := make([]int32, len(stations))
	for i := range stations {
		switch cfg.Partition {
		case PartitionBlocks:
			owner[i] = int32(i * cfg.Shards / len(stations))
		default:
			owner[i] = int32(i % cfg.Shards)
		}
	}
	initial := e.buildOwnership(owner, 0)
	e.own.Store(initial)

	ctrls := make([]cac.Controller, 0, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		ctrl, err := cfg.NewController(initial.views[i])
		if err != nil {
			return nil, fmt.Errorf("shard: building controller for shard %d: %w", i, err)
		}
		if _, ok := ctrl.(cac.CellLocal); !ok {
			e.cellLocal = false
		}
		ctrls = append(ctrls, ctrl)
		e.shards = append(e.shards, &shardState{core: serve.NewCore(ctrl, cfg.Commit, cfg.MaxBatch)})
	}
	e.exchangers = demandExchangers(ctrls)
	e.rebalanceErr = rebalanceSupport(ctrls, e.exchangers)
	if cfg.RebalanceEveryTicks > 0 && e.rebalanceErr != nil {
		return nil, e.rebalanceErr
	}
	if e.exchangers != nil {
		e.interestRadius = interestRadius(e.exchangers)
	}
	if e.interestRadius >= 0 {
		// Rebuild epoch 0 with interest sets (the radius was unknown
		// before the controllers existed).
		e.own.Store(e.buildOwnership(owner, 0))
	}
	e.deltas = make([]cac.DemandDelta, cfg.Shards)
	e.waveRoutes = make([]waveRoute, cfg.Shards)
	for s := range e.waveRoutes {
		e.waveRoutes[s] = waveRoute{
			idx:  make([]int, 0, cfg.MaxBatch),
			reqs: make([]cac.Request, 0, cfg.MaxBatch),
			out:  make([]serve.Response, cfg.MaxBatch),
		}
	}
	intake, err := serve.NewIntake(serve.Config{MaxBatch: cfg.MaxBatch, MaxDelay: cfg.MaxDelay}, e.decideBatch)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	e.intake = intake
	return e, nil
}

// demandExchangers returns the controllers as exchange participants if
// and only if every one is a cac.DemandExchanger and all are distinct
// instances — a shared instance would ingest its own exports as ghost
// demand, double-counting every call. Factories for exchanging
// controllers must therefore build one instance per shard (which the
// one-lock-per-instance contract already requires for any stateful
// controller).
func demandExchangers(ctrls []cac.Controller) []cac.DemandExchanger {
	out := make([]cac.DemandExchanger, len(ctrls))
	seen := make(map[cac.Controller]bool, len(ctrls))
	for i, ctrl := range ctrls {
		ex, ok := ctrl.(cac.DemandExchanger)
		if !ok || seen[ctrl] {
			return nil
		}
		seen[ctrl] = true
		out[i] = ex
	}
	return out
}

// rebalanceSupport reports whether the controller set can be
// rebalanced: every controller must be cac.CellLocal (nothing to move)
// or a cac.CellMigrator (state moves through the seam), and active
// exchangers must be cac.ExchangeResetters (ghost state re-seeds after
// the epoch flips).
func rebalanceSupport(ctrls []cac.Controller, exchangers []cac.DemandExchanger) error {
	for i, ctrl := range ctrls {
		_, local := ctrl.(cac.CellLocal)
		_, mig := ctrl.(cac.CellMigrator)
		if !local && !mig {
			return fmt.Errorf("shard: rebalancing needs cell-local or migratable controllers; shard %d's %q is neither", i, ctrl.Name())
		}
	}
	for i, ex := range exchangers {
		if _, ok := ex.(cac.ExchangeResetter); !ok {
			return fmt.Errorf("shard: rebalancing an exchanging engine needs resettable exchangers; shard %d's %q is not", i, ex.Name())
		}
	}
	return nil
}

// interestRadius returns the exchange's read radius: the maximum over
// every exchanger's declared cac.InterestScoped radius, or -1
// (all-to-all) when any exchanger lacks the interface or declares no
// bound.
func interestRadius(exchangers []cac.DemandExchanger) int {
	radius := 0
	for _, ex := range exchangers {
		is, ok := ex.(cac.InterestScoped)
		if !ok {
			return -1
		}
		r := is.InterestRadiusCells()
		if r < 0 {
			return -1
		}
		if r > radius {
			radius = r
		}
	}
	return radius
}

// buildOwnership materializes one epoch: per-shard views in station
// order plus (when the exchange is interest-scoped) each shard's
// interest set — its owned cells dilated by interestRadius hex rings.
func (e *Engine) buildOwnership(owner []int32, epoch uint64) *ownership {
	n := e.cfg.Shards
	o := &ownership{epoch: epoch, owner: owner, views: make([]View, n)}
	for s := 0; s < n; s++ {
		o.views[s] = View{index: s, network: e.cfg.Network}
	}
	for i, s := range owner {
		o.views[s].stations = append(o.views[s].stations, e.stations[i])
	}
	if e.interestRadius >= 0 {
		o.interest = make([]bitset, n)
		for s := range o.interest {
			o.interest[s] = newBitset(len(e.stations))
		}
		for j, s := range owner {
			hj := e.hexes[j]
			set := o.interest[s]
			for i, hi := range e.hexes {
				if hj.DistanceTo(hi) <= e.interestRadius {
					set.set(i)
				}
			}
		}
	}
	return o
}

// Shards returns the number of shards (after capping at the cell
// count).
func (e *Engine) Shards() int { return len(e.shards) }

// errHandoffNeedsCommit rejects handoffs on an engine that does not own
// station state.
var errHandoffNeedsCommit = errors.New("shard: handoffs require Commit mode (the engine must own station state)")

//facs:coldpath error constructor; unroutable requests never reach a steady-state wave
func errNoStation(callID int) error {
	return fmt.Errorf("shard: request for call %d has no station", callID)
}

//facs:coldpath error constructor; unroutable requests never reach a steady-state wave
func errOutside(h geo.Hex) error {
	return fmt.Errorf("shard: station %v is outside the engine's network", h)
}

//facs:coldpath error constructor; called only on caller misuse
func errHandoffStations(callID int, what string) error {
	return fmt.Errorf("shard: handoff of call %d %s", callID, what)
}

//facs:coldpath error constructor; called only on caller misuse
func errShortBuffer(reqs, slots int) error {
	return fmt.Errorf("shard: response buffer too short: %d requests, %d slots", reqs, slots)
}

// lockAll takes every shard lock in shard order, the engine's lock
// order wherever more than one shard lock is held.
func (e *Engine) lockAll() {
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
}

func (e *Engine) unlockAll() {
	for _, sh := range e.shards {
		sh.mu.Unlock()
	}
}

// SubmitAsync enqueues one request on the engine's intake and returns a
// buffered channel carrying exactly one response. The intake goroutine
// coalesces singles into micro-batches (MaxBatch, MaxDelay) and decides
// each one as a chunk, exactly like one chunk of SubmitWaveTo. An
// unroutable request is answered immediately with a rejection carrying
// the error.
func (e *Engine) SubmitAsync(req cac.Request) <-chan serve.Response {
	var err error
	if req.Station == nil {
		err = errNoStation(req.Call.ID)
	} else if _, ok := e.cells.index(req.Station.Hex()); !ok {
		err = errOutside(req.Station.Hex())
	}
	if err != nil {
		ch := make(chan serve.Response, 1)
		ch <- serve.Response{Decision: cac.Reject, Err: err}
		return ch
	}
	return e.intake.SubmitAsync(req)
}

// decideBatch decides one intake micro-batch (at most MaxBatch
// singles, routable by SubmitAsync's check) as one chunk.
func (e *Engine) decideBatch(reqs []cac.Request, enq time.Time, out []serve.Response) {
	e.waveMu.Lock()
	defer e.waveMu.Unlock()
	if err := e.decideChunk(reqs, out, enq); err != nil {
		for i := range out {
			out[i] = serve.Response{Decision: cac.Reject, Err: err, Batch: len(reqs)}
		}
	}
}

// SubmitWaveTo decides a caller-defined batch (a wave) into a
// caller-provided response buffer: out[i] receives the response for
// reqs[i], and out must hold at least len(reqs) slots. The wave is split
// at MaxBatch boundaries in global request order first; each chunk's
// requests are then routed to their owner shards and decided
// concurrently, with a barrier before the next chunk. Chunk boundaries —
// and, for cell-local controllers, all outcomes — are therefore
// independent of the shard count: the 1-shard engine realises exactly
// serve.Service.SubmitAllInto's deterministic wave semantics. The
// routing and scatter state lives on the engine and is reused across
// waves, so a steady caller that also reuses out allocates nothing per
// wave beyond one goroutine per extra owning shard of a chunk
// (Stats.FanOuts).
//
//facs:hotpath
func (e *Engine) SubmitWaveTo(reqs []cac.Request, out []serve.Response) error {
	if len(reqs) == 0 {
		return nil
	}
	if len(out) < len(reqs) {
		return errShortBuffer(len(reqs), len(out))
	}
	if err := e.intake.Drain(); err != nil {
		return err
	}
	enq := time.Now() //facs:wallclock latency stamp; feeds the latency gauges only
	e.waveMu.Lock()
	defer e.waveMu.Unlock()
	for lo := 0; lo < len(reqs); lo += e.cfg.MaxBatch {
		hi := min(lo+e.cfg.MaxBatch, len(reqs))
		if err := e.decideChunk(reqs[lo:hi], out[lo:hi], enq); err != nil {
			return err
		}
	}
	e.waves.Add(1)
	return nil
}

// decideChunk routes one chunk (at most MaxBatch requests) to its owner
// shards and decides every owning shard's slice against the
// chunk-start state: the first owning shard's slice on the calling
// goroutine, every other one on a fan-out goroutine, all joined before
// it returns. out[i] receives reqs[i]'s response. The caller holds
// waveMu.
func (e *Engine) decideChunk(reqs []cac.Request, out []serve.Response, enq time.Time) error {
	own := e.own.Load()
	routes := e.waveRoutes
	for s := range routes {
		routes[s].idx = routes[s].idx[:0]
	}
	for i := range reqs {
		bs := reqs[i].Station
		if bs == nil {
			return errNoStation(reqs[i].Call.ID)
		}
		ci, ok := e.cells.index(bs.Hex())
		if !ok {
			return errOutside(bs.Hex())
		}
		atomic.AddInt64(&e.cellLoad[ci], 1)
		s := own.owner[ci]
		routes[s].idx = append(routes[s].idx, i)
	}
	first := -1
	for s := range routes {
		r := &routes[s]
		if len(r.idx) == 0 {
			continue
		}
		r.reqs = r.reqs[:0]
		for _, i := range r.idx {
			r.reqs = append(r.reqs, reqs[i])
		}
		if first < 0 {
			first = s
			continue
		}
		e.fanWG.Add(1)
		e.fanOuts.Add(1)
		go e.fanOut(s, out, enq)
	}
	e.decideSlice(first, out, enq)
	e.fanWG.Wait()
	return nil
}

// fanOut is one fan-out goroutine of decideChunk.
func (e *Engine) fanOut(s int, out []serve.Response, enq time.Time) {
	defer e.fanWG.Done()
	e.decideSlice(s, out, enq)
}

// decideSlice decides shard s's gathered slice of the current chunk
// under the shard's lock and scatters the responses to their chunk
// positions.
func (e *Engine) decideSlice(s int, out []serve.Response, enq time.Time) {
	r := &e.waveRoutes[s]
	n := len(r.reqs)
	sh := e.shards[s]
	sh.mu.Lock()
	// A decision error is already carried by every response.
	_ = sh.core.Decide(r.reqs, r.out[:n], enq)
	sh.mu.Unlock()
	for j, i := range r.idx {
		out[i] = r.out[j]
	}
}

// Tick delivers cac.Ticker.OnTick to every shard's controller, in
// shard order, and returns once all have applied it — a cross-shard
// barrier: every request submitted before Tick is decided before it
// fires, and no request submitted after Tick returns can overtake it on
// any shard.
//
// For demand-exchanging controllers (every shard controller a distinct
// cac.DemandExchanger instance) the barrier also
// hosts the ghost-demand exchange: once every shard has applied the
// tick (and, for the SCC ledger, re-aggregated its matrix), each
// shard's demand delta is collected and fanned back out — to every
// sibling, or only to interested ones when the exchange is scoped —
// all before Tick returns. The exchange cadence is therefore exactly
// the tick cadence, deterministic and race-free by construction, since
// both phases run under each shard's own lock.
//
// With RebalanceEveryTicks set, every Nth barrier additionally runs
// one rebalance epoch between the tick and the exchange: plan,
// migrate, publish the next ownership snapshot, re-seed exchange
// state. The exchange that follows carries absolute demand matrices
// (see cac.ExchangeResetter), so every ghost is consistent under the
// new ownership before any post-barrier decision runs.
//
// Callers wanting a globally consistent exchange (and any caller using
// rebalancing) must quiesce submissions across Tick, exactly as the
// closed-loop drivers do.
func (e *Engine) Tick(now float64) error {
	if err := e.intake.Drain(); err != nil {
		return err
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.core.Tick(now)
		sh.mu.Unlock()
	}
	if n := e.cfg.RebalanceEveryTicks; n > 0 {
		if t := e.ticks.Add(1); t%int64(n) == 0 {
			if err := e.rebalance(); err != nil {
				return err
			}
		}
	}
	e.exchangeDemand()
	return nil
}

// rebalance runs one epoch with every shard lock held: snapshot the
// load counters, plan, migrate each planned cell, publish the next
// ownership snapshot, and re-seed exchanger state.
func (e *Engine) rebalance() error {
	if e.rebalanceErr != nil {
		return e.rebalanceErr
	}
	e.lockAll()
	defer e.unlockAll()
	cur := e.own.Load()
	load := e.loadBuf
	for i := range load {
		// Decisions routed this epoch plus present occupancy: the former
		// finds hot cells, the latter breaks ties toward cells whose
		// calls would actually move. Both inputs are identical across
		// shard counts, so plans replay identically too.
		load[i] = float64(atomic.LoadInt64(&e.cellLoad[i])) + float64(e.stations[i].Used())
	}
	plan := PlanRebalance(load, cur.owner, len(e.shards), e.cfg.Rebalance)
	for i := range e.cellLoad {
		atomic.StoreInt64(&e.cellLoad[i], 0)
	}
	if len(plan) == 0 {
		return nil
	}
	for _, m := range plan {
		if err := e.migrate(m); err != nil {
			return err
		}
	}
	next := make([]int32, len(cur.owner))
	copy(next, cur.owner)
	for _, m := range plan {
		next[m.Cell] = int32(m.To)
	}
	e.own.Store(e.buildOwnership(next, cur.epoch+1))
	if e.exchangers != nil {
		for _, sh := range e.shards {
			if r, ok := sh.core.Controller().(cac.ExchangeResetter); ok {
				r.ResetExchange()
			}
		}
	}
	e.rebalances.Add(1)
	e.migrations.Add(int64(len(plan)))
	return nil
}

// migrate moves one cell: detach its station's call slots and extract
// its controller state from the source shard, then attach and insert
// both on the target shard — at every instant the cell's state lives
// on exactly one shard. The caller holds every shard lock.
func (e *Engine) migrate(m Migration) error {
	bs := e.stations[m.Cell]
	h := e.hexes[m.Cell]
	if e.cfg.Commit {
		e.migCalls = bs.DetachCalls(e.migCalls[:0])
	}
	if mig, ok := e.shards[m.From].core.Controller().(cac.CellMigrator); ok {
		e.migRows = mig.MigrateOut(h, e.migRows[:0])
	}
	if e.cfg.Commit {
		if err := bs.AttachCalls(e.migCalls); err != nil {
			return fmt.Errorf("shard: migrating cell %v from shard %d to %d: %w", h, m.From, m.To, err)
		}
	}
	if mig, ok := e.shards[m.To].core.Controller().(cac.CellMigrator); ok {
		mig.MigrateIn(e.migRows)
	}
	e.migratedCalls.Add(int64(len(e.migCalls)))
	e.migCalls = e.migCalls[:0]
	e.migRows = e.migRows[:0]
	return nil
}

// exchangeDemand runs one exchange round inside the tick barrier:
// phase 1 collects every shard's demand delta under that shard's lock,
// phase 2 applies the union on every shard — every delta except a
// shard's own, in ascending source-shard order, filtered down to the
// receiver's interest set when the exchange is scoped. Both phases
// complete before the caller's Tick returns.
func (e *Engine) exchangeDemand() {
	if e.exchangers == nil {
		return
	}
	own := e.own.Load()
	deltas := e.deltas
	var rows int64
	for s, sh := range e.shards {
		sh.mu.Lock()
		deltas[s] = e.exchangers[s].ExportDemand()
		sh.mu.Unlock()
		rows += int64(len(deltas[s].Rows))
	}
	var fanned int64
	for s, sh := range e.shards {
		sh.mu.Lock()
		for src := range deltas {
			if src == s || len(deltas[src].Rows) == 0 {
				continue
			}
			d := deltas[src]
			if own.interest != nil {
				// Keep only rows inside this shard's read set; the
				// generation still advances on empty filtered deltas so
				// replay guards stay aligned with the exporter.
				set := own.interest[s]
				e.scoped = e.scoped[:0]
				for _, r := range d.Rows {
					if ci, ok := e.cells.index(r.Cell); ok && set.has(int(ci)) {
						e.scoped = append(e.scoped, r)
					}
				}
				d = cac.DemandDelta{Gen: d.Gen, Rows: e.scoped}
			}
			fanned += int64(len(d.Rows))
			e.exchangers[s].ApplyGhost(src, d)
		}
		sh.mu.Unlock()
	}
	clear(deltas)
	e.ghostRows.Add(fanned)
	e.exchanges.Add(1)
	e.ghostRowsAll.Add(rows * int64(len(e.shards)-1))
}

// Flush blocks until every request already submitted has been decided
// (everything else the engine does is synchronous).
func (e *Engine) Flush() error { return e.intake.Drain() }

// Do runs fn on shard s's controller under the shard's lock, ordered
// after everything already submitted, and returns once fn does. A shard
// index outside [0, Shards()) is an error and fn never runs. fn must
// not call back into the engine. A globally consistent multi-shard
// view additionally requires the caller to quiesce submissions (as the
// closed-loop drivers do between waves).
func (e *Engine) Do(s int, fn func(ctrl cac.Controller)) error {
	if s < 0 || s >= len(e.shards) {
		return fmt.Errorf("shard: Do on shard %d, engine has %d", s, len(e.shards))
	}
	if err := e.intake.Drain(); err != nil {
		return err
	}
	sh := e.shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.core.Do(fn)
	return nil
}

// Release retires a carried call on its station's shard, ordered after
// everything already submitted: in Commit mode the bandwidth is
// released on the station (a failure counts into the shard's OpErrs),
// and an observer controller is notified either way.
//
//facs:hotpath
func (e *Engine) Release(callID int, station *cell.BaseStation, now float64) error {
	ci, ok := e.cells.index(station.Hex())
	if !ok {
		return errOutside(station.Hex())
	}
	if err := e.intake.Drain(); err != nil {
		return err
	}
	sh := e.shards[e.own.Load().owner[ci]]
	sh.mu.Lock()
	sh.core.Release(callID, station, now)
	sh.mu.Unlock()
	return nil
}

// HandoffCall runs one handoff to completion on the calling goroutine
// and returns its result. Handoffs are serialized by one mutex, each
// running the two-phase protocol whole: release at the source under
// the source shard's lock, then admission with handoff priority at the
// target under the target shard's lock — a one-request chunk, so the
// decision sees every previously committed call. Source release
// therefore precedes target admission for every shard count and
// interleaving. A handoff to the station the call is on is refused
// before phase 1, a protocol error counted in Errs that leaves the call
// committed (cell.Network.Handoff refuses it too).
//
//facs:hotpath
func (e *Engine) HandoffCall(h Handoff) HandoffResult {
	var res HandoffResult
	switch {
	case !e.cfg.Commit:
		res.Err = errHandoffNeedsCommit
	case h.From == nil || h.To == nil:
		res.Err = errHandoffStations(h.CallID, "needs both stations")
	case h.From.Hex() == h.To.Hex():
		res.Err = errHandoffStations(h.CallID, "targets the station it is on")
	default:
		res.Err = e.intake.Drain()
	}
	if res.Err != nil {
		e.handoffErrs.Add(1)
		return res
	}
	srcCi, okSrc := e.cells.index(h.From.Hex())
	dstCi, okDst := e.cells.index(h.To.Hex())
	if !okSrc || !okDst {
		e.handoffErrs.Add(1)
		res.Err = errHandoffStations(h.CallID, "touches a station outside the engine's network")
		return res
	}

	e.handoffMu.Lock()
	defer e.handoffMu.Unlock()
	own := e.own.Load()
	src, dst := e.shards[own.owner[srcCi]], e.shards[own.owner[dstCi]]
	res.CrossShard = src != dst

	// Phase 1: release at the source.
	src.mu.Lock()
	call, err := src.core.Depart(h.CallID, h.From, h.Now)
	src.mu.Unlock()
	if err != nil {
		e.handoffErrs.Add(1)
		res.Err = err
		return res
	}

	// Phase 2: admission at the target, with handoff priority.
	atomic.AddInt64(&e.cellLoad[dstCi], 1)
	dst.mu.Lock()
	res.Response = dst.core.Handoff(call, h.To, h.Est, h.Now)
	dst.mu.Unlock()
	e.handoffCount.Add(1)
	if res.CrossShard {
		e.crossShard.Add(1)
	}
	if !res.Response.Committed {
		e.drops.Add(1)
	}
	return res
}

// Stats snapshots every shard's counters and aggregates them into
// engine totals. After Flush (or Close) the snapshot is exact.
func (e *Engine) Stats() Stats {
	st := Stats{
		Shards:            len(e.shards),
		CellLocal:         e.cellLocal,
		PerShard:          make([]serve.Stats, len(e.shards)),
		Waves:             e.waves.Load(),
		Handoffs:          e.handoffCount.Load(),
		CrossShard:        e.crossShard.Load(),
		Drops:             e.drops.Load(),
		Errs:              e.handoffErrs.Load(),
		FanOuts:           e.fanOuts.Load(),
		Exchanges:         e.exchanges.Load(),
		GhostRows:         e.ghostRows.Load(),
		GhostRowsAllToAll: e.ghostRowsAll.Load(),
		InterestScoped:    e.interestRadius >= 0,
		Epoch:             e.own.Load().epoch,
		Rebalances:        e.rebalances.Load(),
		Migrations:        e.migrations.Load(),
		MigratedCalls:     e.migratedCalls.Load(),
	}
	for i, sh := range e.shards {
		sh.mu.Lock()
		s := sh.core.Stats()
		sh.mu.Unlock()
		st.PerShard[i] = s
		st.Total = st.Total.Merge(s)
	}
	return st
}

// Close decides every single still queued on the intake and stops the
// intake goroutine; afterwards every operation reports serve.ErrClosed.
// Idempotent; submissions racing with Close either complete normally
// or report serve.ErrClosed.
func (e *Engine) Close() error {
	e.intake.Close()
	return nil
}
