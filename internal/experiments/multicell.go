package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/metrics"
	"facs/internal/mobility"
	"facs/internal/serve"
	"facs/internal/sim"
	"facs/internal/traffic"
)

// MultiCellConfig parameterises the Fig. 10 comparison scenario: a
// hexagonal multi-cell network with mobile users, handoffs, and one
// admission controller deciding new-call admission. Running the identical
// workload (same seed) through two controllers yields the paper's
// FACS-vs-SCC comparison.
type MultiCellConfig struct {
	// NewController builds the controller under test for a freshly
	// built network. Required.
	NewController func(net *cell.Network) (cac.Controller, error)
	// Rings is the network size (default 1: seven cells).
	Rings int
	// CellRadiusM is the hex cell radius (default 1500 m).
	CellRadiusM float64
	// CapacityBU is the per-station bandwidth (default 40).
	CapacityBU int
	// NumRequests is the paper's x-axis.
	NumRequests int
	// WindowSec is the arrival window. The default of 150 s is chosen
	// so that 100 requesting connections saturate the seven-cell
	// network, giving the figure its full dynamic range.
	WindowSec float64
	// MeanHoldingSec is the exponential mean call duration (default 120).
	MeanHoldingSec float64
	// SpeedKmh samples user speeds (default Span{10, 80}: a mixed
	// pedestrian-to-vehicular population).
	SpeedKmh Span
	// TurnSigmaDeg / RefSpeedKmh parameterise user turning (defaults
	// 12 / 15).
	TurnSigmaDeg float64
	RefSpeedKmh  float64
	// GPSNoiseM is the per-axis GPS error (default 5 m; negative
	// disables).
	GPSNoiseM float64
	// ObserveSteps is the GPS warm-up before admission (default 10).
	ObserveSteps int
	// TickIntervalSec is how often controllers with time-driven state
	// (cac.Ticker, e.g. the incremental SCC ledger) receive OnTick while
	// arrivals remain or calls are active. Default 10 s (the SCC
	// projection quantum); controllers that are not Tickers get none.
	TickIntervalSec float64
	// HandoffPolicy selects how handoffs are admitted at the target
	// cell. Default HandoffPhysical.
	HandoffPolicy HandoffPolicy
	// Seed drives all randomness.
	Seed int64
}

// moveIntervalSec is how often active calls update their position and
// check for handoffs.
const moveIntervalSec = 5

// HandoffPolicy selects the handoff admission rule.
type HandoffPolicy int

// Handoff policies.
const (
	// HandoffPhysical admits a handoff whenever the target cell has
	// room: the paper's implicit baseline (it leaves call priority to
	// future work).
	HandoffPhysical HandoffPolicy = iota + 1
	// HandoffControlled asks the admission controller with the Handoff
	// flag set, so that priority-aware controllers (e.g. FACS with
	// WithHandoffBias, or the guard-channel scheme) can privilege or
	// throttle handoffs. This implements the paper's stated future work.
	HandoffControlled
)

// String implements fmt.Stringer.
func (h HandoffPolicy) String() string {
	switch h {
	case HandoffPhysical:
		return "physical"
	case HandoffControlled:
		return "controlled"
	default:
		return fmt.Sprintf("HandoffPolicy(%d)", int(h))
	}
}

func (c MultiCellConfig) withDefaults() MultiCellConfig {
	if c.Rings == 0 {
		c.Rings = 1
	}
	if c.CellRadiusM == 0 {
		c.CellRadiusM = 1500
	}
	if c.CapacityBU == 0 {
		c.CapacityBU = cell.DefaultCapacityBU
	}
	if c.WindowSec == 0 {
		c.WindowSec = 150
	}
	if c.MeanHoldingSec == 0 {
		c.MeanHoldingSec = 120
	}
	if (c.SpeedKmh == Span{}) {
		c.SpeedKmh = Span{Min: 10, Max: 80}
	}
	if c.TurnSigmaDeg == 0 {
		c.TurnSigmaDeg = 12
	}
	if c.RefSpeedKmh == 0 {
		c.RefSpeedKmh = 15
	}
	if c.GPSNoiseM == 0 {
		c.GPSNoiseM = 5
	}
	if c.ObserveSteps == 0 {
		c.ObserveSteps = 10
	}
	if c.TickIntervalSec == 0 {
		c.TickIntervalSec = 10
	}
	if c.HandoffPolicy == 0 {
		c.HandoffPolicy = HandoffPhysical
	}
	return c
}

// Validate checks the configuration.
func (c MultiCellConfig) Validate() error {
	if c.NewController == nil {
		return fmt.Errorf("experiments: multi-cell config needs a controller factory")
	}
	if c.NumRequests <= 0 {
		return fmt.Errorf("experiments: NumRequests must be > 0, got %d", c.NumRequests)
	}
	if !(c.WindowSec > 0) || !(c.MeanHoldingSec > 0) || !(c.TickIntervalSec > 0) {
		return fmt.Errorf("experiments: time parameters must be > 0")
	}
	if c.ObserveSteps < 2 {
		return fmt.Errorf("experiments: ObserveSteps must be >= 2, got %d", c.ObserveSteps)
	}
	if err := c.SpeedKmh.Validate(); err != nil {
		return err
	}
	if c.HandoffPolicy != HandoffPhysical && c.HandoffPolicy != HandoffControlled {
		return fmt.Errorf("experiments: unknown handoff policy %v", c.HandoffPolicy)
	}
	return nil
}

// MultiCellResult aggregates one multi-cell run.
type MultiCellResult struct {
	// ControllerName identifies the scheme under test.
	ControllerName string
	// Requested/Accepted count new-call admission outcomes.
	Requested int
	Accepted  int
	// HandoffAttempts/HandoffDrops count inter-cell moves of active
	// calls; a drop is a forced termination because the target cell had
	// no room.
	HandoffAttempts int
	HandoffDrops    int
	// Completed counts calls that ended normally (including leaving
	// coverage).
	Completed int
	// Utilization summarises network occupancy (fraction of total BU)
	// sampled at every arrival.
	Utilization metrics.Summary
}

// AcceptedPct returns 100 * accepted / requested.
func (r MultiCellResult) AcceptedPct() float64 {
	if r.Requested == 0 {
		return 0
	}
	return 100 * float64(r.Accepted) / float64(r.Requested)
}

// DropPct returns 100 * drops / handoff attempts.
func (r MultiCellResult) DropPct() float64 {
	if r.HandoffAttempts == 0 {
		return 0
	}
	return 100 * float64(r.HandoffDrops) / float64(r.HandoffAttempts)
}

// activeCall is the runtime state of one admitted call in the multi-cell
// simulation. Records live in a callArena and are recycled when the call
// ends, so long runs do not leave one heap object per historical call.
type activeCall struct {
	id       int
	bu       int
	class    traffic.Class
	walk     *mobility.TurningWalk
	hex      geo.Hex
	endEv    *sim.Event
	moveEv   *sim.Event
	dropped  bool
	nextFree *activeCall
}

// arenaChunkLen is the records-per-chunk granularity of callArena.
const arenaChunkLen = 256

// callArena hands out pointer-stable activeCall records from fixed-size
// chunks with a free list, so the steady-state call population recycles
// a bounded set of records instead of allocating one per call. Records
// are backed by chunks that are only ever appended to within their fixed
// capacity, so handed-out pointers never move.
type callArena struct {
	chunks [][]activeCall
	free   *activeCall
}

// alloc returns a zeroed record.
func (a *callArena) alloc() *activeCall {
	if c := a.free; c != nil {
		a.free = c.nextFree
		*c = activeCall{}
		return c
	}
	if n := len(a.chunks); n == 0 || len(a.chunks[n-1]) == arenaChunkLen {
		a.chunks = append(a.chunks, make([]activeCall, 0, arenaChunkLen))
	}
	last := len(a.chunks) - 1
	a.chunks[last] = append(a.chunks[last], activeCall{})
	return &a.chunks[last][len(a.chunks[last])-1]
}

// release recycles a record. The caller must guarantee no scheduled
// event still references it: every handler closure capturing the record
// has either fired or been cancelled.
func (a *callArena) release(c *activeCall) {
	*c = activeCall{nextFree: a.free}
	a.free = c
}

// RunMultiCell executes the multi-cell scenario.
func RunMultiCell(cfg MultiCellConfig) (MultiCellResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return MultiCellResult{}, err
	}
	net, err := cell.NewNetwork(cell.NetworkConfig{
		Rings:       cfg.Rings,
		CellRadiusM: cfg.CellRadiusM,
		CapacityBU:  cfg.CapacityBU,
	})
	if err != nil {
		return MultiCellResult{}, err
	}
	controller, err := cfg.NewController(net)
	if err != nil {
		return MultiCellResult{}, err
	}

	gen, err := traffic.NewGenerator(traffic.GeneratorConfig{
		MeanInterarrival: cfg.WindowSec / float64(cfg.NumRequests),
		MeanHolding:      cfg.MeanHoldingSec,
	}, sim.NewStream(cfg.Seed, "traffic"))
	if err != nil {
		return MultiCellResult{}, err
	}
	userRNG := sim.NewStream(cfg.Seed, "users")
	gpsRNG := sim.NewStream(cfg.Seed, "gps")

	result := MultiCellResult{ControllerName: controller.Name()}
	run := &multiCellRun{
		cfg:     cfg,
		net:     net,
		step:    commitStep{core: serve.NewCore(controller, true, 1)},
		userRNG: userRNG,
		gpsRNG:  gpsRNG,
		result:  &result,
	}

	sched := sim.NewScheduler()
	for _, req := range gen.Take(cfg.NumRequests) {
		req := req
		run.pendingArrivals++
		if _, err := sched.At(req.ArrivalTime, func(s *sim.Scheduler) {
			run.arrive(s, req)
		}); err != nil {
			return MultiCellResult{}, err
		}
	}
	if _, ok := controller.(cac.Ticker); ok {
		if _, err := sched.After(cfg.TickIntervalSec, run.tick); err != nil {
			return MultiCellResult{}, err
		}
	}
	sched.Run(0)
	if run.err != nil {
		return MultiCellResult{}, run.err
	}
	return result, nil
}

type multiCellRun struct {
	cfg     MultiCellConfig
	net     *cell.Network
	step    commitStep
	userRNG *rand.Rand
	gpsRNG  *rand.Rand
	result  *MultiCellResult
	err     error
	// pendingArrivals and liveCalls gate the tick chain: ticks re-arm
	// only while the run still has work, so the scheduler drains.
	pendingArrivals int
	liveCalls       int
	// arena recycles activeCall records across the call population.
	arena callArena
}

// tick delivers the periodic time advance to the controller and re-arms
// itself while the run still has pending arrivals or active calls.
func (r *multiCellRun) tick(s *sim.Scheduler) {
	if r.err != nil {
		return
	}
	r.step.core.Tick(s.Now())
	if r.pendingArrivals == 0 && r.liveCalls == 0 {
		return
	}
	if _, err := s.After(r.cfg.TickIntervalSec, r.tick); err != nil {
		r.err = err
	}
}

// spawn places a new user uniformly inside network coverage with a random
// heading and a sampled speed, returning its mobility model.
func (r *multiCellRun) spawn() (*mobility.TurningWalk, error) {
	pos, _, err := placeInCoverage(r.userRNG, r.net, r.cfg.CellRadiusM, r.cfg.Rings)
	if err != nil {
		return nil, err
	}
	return mobility.NewTurningWalk(mobility.State{
		Pos:        pos,
		SpeedKmh:   r.cfg.SpeedKmh.Sample(r.userRNG),
		HeadingDeg: sim.Uniform(r.userRNG, -180, 180),
	}, mobility.TurningConfig{
		TurnSigmaDeg: r.cfg.TurnSigmaDeg,
		RefSpeedKmh:  r.cfg.RefSpeedKmh,
	}, r.userRNG)
}

// placeInCoverage draws uniform positions over the bounding box of a
// network of rings rings of cellRadiusM cells (with half-cell margin)
// until one falls inside coverage, and returns it with its station.
func placeInCoverage(rng *rand.Rand, net *cell.Network, cellRadiusM float64, rings int) (geo.Point, *cell.BaseStation, error) {
	radius := cellRadiusM * (1.8*float64(rings) + 1)
	for tries := 0; ; tries++ {
		pos := geo.Point{
			X: sim.Uniform(rng, -radius, radius),
			Y: sim.Uniform(rng, -radius, radius),
		}
		if bs, err := net.StationAt(pos); err == nil {
			return pos, bs, nil
		}
		if tries > 1000 {
			return geo.Point{}, nil, fmt.Errorf("experiments: could not place a user inside coverage")
		}
	}
}

// arrive handles one new connection request.
func (r *multiCellRun) arrive(s *sim.Scheduler, req traffic.Request) {
	r.pendingArrivals--
	if r.err != nil {
		return
	}
	walk, err := r.spawn()
	if err != nil {
		r.err = err
		return
	}
	est, err := warmUp(walk, r.cfg.GPSNoiseM, r.cfg.ObserveSteps, r.gpsRNG)
	if err != nil {
		r.err = err
		return
	}
	// The warm-up may have carried the user outside coverage; skip such
	// arrivals without counting them (the user is not in the network).
	bs, err := r.net.StationAt(walk.State().Pos)
	if err != nil {
		return
	}
	r.result.Utilization.Add(float64(r.net.TotalUsed()) / float64(r.net.TotalCapacity()))
	committed, err := r.step.admit(cac.Request{
		Call: cell.Call{
			ID:         req.ID,
			Class:      req.Class,
			BU:         req.BU,
			AdmittedAt: s.Now(),
		},
		Station: bs,
		Obs:     gps.Observe(est, bs.Pos()),
		Est:     est,
		Now:     s.Now(),
	})
	if err != nil {
		r.err = err
		return
	}
	r.result.Requested++
	if !committed {
		return
	}
	r.result.Accepted++
	r.liveCalls++
	call := r.arena.alloc()
	call.id = req.ID
	call.bu = req.BU
	call.class = req.Class
	call.walk = walk
	call.hex = bs.Hex()
	call.endEv, err = s.After(req.HoldingTime, func(s *sim.Scheduler) { r.complete(s, call) })
	if err != nil {
		r.err = err
		return
	}
	call.moveEv, err = s.After(moveIntervalSec, func(s *sim.Scheduler) { r.move(s, call) })
	if err != nil {
		r.err = err
	}
}

// complete ends a call normally.
func (r *multiCellRun) complete(s *sim.Scheduler, call *activeCall) {
	if r.err != nil || call.dropped {
		return
	}
	if call.moveEv != nil {
		call.moveEv.Cancel()
	}
	bs, ok := r.net.At(call.hex)
	if !ok {
		r.err = fmt.Errorf("experiments: call %d completed in unknown cell %v", call.id, call.hex)
		return
	}
	if _, err := r.step.core.Depart(call.id, bs, s.Now()); err != nil {
		r.err = err
		return
	}
	r.result.Completed++
	r.liveCalls--
	// Both events are now fired or cancelled, so the record can recycle.
	r.arena.release(call)
}

// dropCall force-terminates a call whose handoff was denied.
func (r *multiCellRun) dropCall(s *sim.Scheduler, call *activeCall) {
	r.result.HandoffDrops++
	call.dropped = true
	if call.endEv != nil {
		call.endEv.Cancel()
	}
	src, ok := r.net.At(call.hex)
	if !ok {
		r.err = fmt.Errorf("experiments: dropping call %d from unknown cell %v", call.id, call.hex)
		return
	}
	if _, err := r.step.core.Depart(call.id, src, s.Now()); err != nil {
		r.err = err
		return
	}
	r.liveCalls--
	// endEv is cancelled and moveEv is the currently-firing event: no
	// pending handler references the record any more.
	r.arena.release(call)
}

// move advances an active call's user and performs handoffs.
func (r *multiCellRun) move(s *sim.Scheduler, call *activeCall) {
	if r.err != nil || call.dropped {
		return
	}
	st := call.walk.Step(moveIntervalSec)
	newBS, err := r.net.StationAt(st.Pos)
	if err != nil {
		// The user left coverage: terminate the call normally (the
		// paper's single-operator world has no roaming).
		if errors.Is(err, cell.ErrOutsideCoverage) {
			if call.endEv != nil {
				call.endEv.Cancel()
			}
			call.endEv = nil
			r.complete(s, call)
			return
		}
		r.err = err
		return
	}
	if newBS.Hex() != call.hex {
		r.result.HandoffAttempts++
		est := gps.Estimate{
			SpeedKmh:   st.SpeedKmh,
			HeadingDeg: st.HeadingDeg,
			Pos:        st.Pos,
			Time:       s.Now(),
		}
		if r.cfg.HandoffPolicy == HandoffControlled {
			// The decision only gates the move: Network.Handoff below
			// commits it.
			decision, err := cac.DecideOne(r.step.core.Controller(), &r.step.req, cac.Request{
				Call:    cell.Call{ID: call.id, Class: call.class, BU: call.bu, AdmittedAt: s.Now()},
				Station: newBS,
				Obs:     gps.Observe(est, newBS.Pos()),
				Est:     est,
				Handoff: true,
				Now:     s.Now(),
			})
			if err != nil {
				r.err = err
				return
			}
			if !decision.Accepted() {
				r.dropCall(s, call)
				return
			}
		}
		if err := r.net.Handoff(call.id, call.hex, newBS.Hex(), s.Now()); err != nil {
			if errors.Is(err, cell.ErrInsufficientBandwidth) {
				r.dropCall(s, call)
				return
			}
			r.err = err
			return
		}
		call.hex = newBS.Hex()
		r.step.core.UpdateState(call.id, est, newBS)
	}
	var schedErr error
	call.moveEv, schedErr = s.After(moveIntervalSec, func(s *sim.Scheduler) { r.move(s, call) })
	if schedErr != nil {
		r.err = schedErr
	}
}
