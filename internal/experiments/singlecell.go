package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"facs/internal/cac"
	"facs/internal/cell"
	ifacs "facs/internal/facs"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/metrics"
	"facs/internal/mobility"
	"facs/internal/serve"
	"facs/internal/sim"
	"facs/internal/traffic"
)

// Span is a closed interval used to sample per-user parameters uniformly.
// Min == Max pins the parameter to a constant.
type Span struct {
	Min float64
	Max float64
}

// Pin returns a degenerate span holding exactly v.
func Pin(v float64) Span { return Span{Min: v, Max: v} }

// Sample draws from the span.
func (s Span) Sample(rng interface{ Float64() float64 }) float64 {
	if s.Min == s.Max {
		return s.Min
	}
	lo, hi := s.Min, s.Max
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo + rng.Float64()*(hi-lo)
}

// Validate checks the span for NaNs.
func (s Span) Validate() error {
	if math.IsNaN(s.Min) || math.IsNaN(s.Max) {
		return fmt.Errorf("experiments: span bounds must not be NaN")
	}
	return nil
}

// SingleCellConfig parameterises the paper's single-base-station scenario
// used by Figs. 7, 8 and 9: one 40 BU cell, N requesting connections
// arriving as a Poisson stream over a window, each belonging to a distinct
// user whose kinematics are sampled from the configured spans and observed
// through the GPS substrate.
type SingleCellConfig struct {
	// Controller renders the admission decisions. Required.
	Controller cac.Controller
	// NumRequests is the paper's x-axis: the number of requesting
	// connections.
	NumRequests int
	// WindowSec is the arrival window; the Poisson arrival rate is
	// NumRequests/WindowSec. Default 2000 s.
	WindowSec float64
	// MeanHoldingSec is the exponential mean call duration. Default 120 s.
	MeanHoldingSec float64
	// Mix is the class mix. Default 60/30/10 text/voice/video.
	Mix traffic.Mix
	// SpeedKmh samples each user's speed. Default Pin(30).
	SpeedKmh Span
	// AngleOffsetDeg samples the user's heading relative to the bearing
	// towards the base station: 0 means heading straight at it.
	// Default Pin(0).
	AngleOffsetDeg Span
	// DistanceKm samples the user's distance from the base station.
	// Default Span{0.5, 9.5}.
	DistanceKm Span
	// ObserveSteps is the number of 1 Hz GPS fixes collected (while the
	// user moves under the turning-walk model) before the admission
	// decision. Default 10.
	ObserveSteps int
	// GPSNoiseM is the per-axis GPS error. Default 5 m; negative
	// disables noise.
	GPSNoiseM float64
	// TurnSigmaDeg / RefSpeedKmh parameterise the speed-dependent
	// turning walk (see mobility.TurningConfig). Defaults 12 / 15.
	TurnSigmaDeg float64
	RefSpeedKmh  float64
	// CapacityBU is the station bandwidth. Default 40.
	CapacityBU int
	// QueueTextRequests enables the queueing extension motivated by the
	// paper's introduction ("data traffic is queue-able and a certain
	// amount of delay can be acceptable"): a text request whose soft
	// decision grade is exactly NRNA (not reject, not accept) is held in
	// a FIFO queue and retried whenever bandwidth is released, up to
	// MaxQueueWaitSec. Requires a controller that exposes decision
	// grades (FACS); other controllers silently ignore the option.
	QueueTextRequests bool
	// MaxQueueWaitSec bounds the queueing delay. Default 30 s.
	MaxQueueWaitSec float64
	// Seed drives all randomness.
	Seed int64
}

func (c SingleCellConfig) withDefaults() SingleCellConfig {
	if c.WindowSec == 0 {
		c.WindowSec = 2000
	}
	if c.MeanHoldingSec == 0 {
		c.MeanHoldingSec = 120
	}
	if (c.Mix == traffic.Mix{}) {
		c.Mix = traffic.DefaultMix()
	}
	if (c.SpeedKmh == Span{}) {
		c.SpeedKmh = Pin(30)
	}
	if (c.DistanceKm == Span{}) {
		c.DistanceKm = Span{Min: 0.5, Max: 9.5}
	}
	if c.ObserveSteps == 0 {
		c.ObserveSteps = 10
	}
	if c.GPSNoiseM == 0 {
		c.GPSNoiseM = 5
	}
	if c.TurnSigmaDeg == 0 {
		c.TurnSigmaDeg = 12
	}
	if c.RefSpeedKmh == 0 {
		c.RefSpeedKmh = 15
	}
	if c.CapacityBU == 0 {
		c.CapacityBU = cell.DefaultCapacityBU
	}
	if c.MaxQueueWaitSec == 0 {
		c.MaxQueueWaitSec = 30
	}
	return c
}

// Validate checks the configuration.
func (c SingleCellConfig) Validate() error {
	if c.Controller == nil {
		return fmt.Errorf("experiments: single-cell config needs a controller")
	}
	if c.NumRequests <= 0 {
		return fmt.Errorf("experiments: NumRequests must be > 0, got %d", c.NumRequests)
	}
	if !(c.WindowSec > 0) {
		return fmt.Errorf("experiments: WindowSec must be > 0, got %v", c.WindowSec)
	}
	if !(c.MeanHoldingSec > 0) {
		return fmt.Errorf("experiments: MeanHoldingSec must be > 0, got %v", c.MeanHoldingSec)
	}
	for _, s := range []Span{c.SpeedKmh, c.AngleOffsetDeg, c.DistanceKm} {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	if c.ObserveSteps < 2 {
		return fmt.Errorf("experiments: ObserveSteps must be >= 2, got %d", c.ObserveSteps)
	}
	if c.CapacityBU <= 0 {
		return fmt.Errorf("experiments: CapacityBU must be > 0, got %d", c.CapacityBU)
	}
	if !(c.MaxQueueWaitSec > 0) {
		return fmt.Errorf("experiments: MaxQueueWaitSec must be > 0, got %v", c.MaxQueueWaitSec)
	}
	return c.Mix.Validate()
}

// SingleCellResult aggregates one single-cell run.
type SingleCellResult struct {
	// Requested and Accepted count connection requests.
	Requested int
	Accepted  int
	// ByClass splits the acceptance ratio per service class.
	ByClass map[traffic.Class]*metrics.Ratio
	// Occupancy summarises the station occupancy (in BU) sampled at
	// every arrival.
	Occupancy metrics.Summary
	// MeanCv summarises the FLC1-visible prediction inputs actually
	// measured (only meaningful for controllers that use them).
	MeanObservedAngleDeg metrics.Summary
	MeanObservedSpeedKmh metrics.Summary
	// Queueing-extension outcomes (zero unless QueueTextRequests).
	// Queued counts text requests held in the NRNA queue; QueuedAccepted
	// counts those eventually admitted; QueueWait summarises the waiting
	// time of admitted queued requests in seconds.
	Queued         int
	QueuedAccepted int
	QueueWait      metrics.Summary
}

// AcceptedPct returns the paper's y-axis: 100 * accepted / requested.
func (r SingleCellResult) AcceptedPct() float64 {
	if r.Requested == 0 {
		return 0
	}
	return 100 * float64(r.Accepted) / float64(r.Requested)
}

// RunSingleCell executes the single-cell scenario and returns aggregate
// acceptance statistics.
func RunSingleCell(cfg SingleCellConfig) (SingleCellResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return SingleCellResult{}, err
	}
	bs, err := cell.NewBaseStation(geo.Hex{}, geo.Point{}, cfg.CapacityBU)
	if err != nil {
		return SingleCellResult{}, err
	}
	gen, err := traffic.NewGenerator(traffic.GeneratorConfig{
		Mix:              cfg.Mix,
		MeanInterarrival: cfg.WindowSec / float64(cfg.NumRequests),
		MeanHolding:      cfg.MeanHoldingSec,
	}, sim.NewStream(cfg.Seed, "traffic"))
	if err != nil {
		return SingleCellResult{}, err
	}
	run := &singleCellRun{
		cfg:     cfg,
		bs:      bs,
		step:    commitStep{core: serve.NewCore(cfg.Controller, true, 1)},
		userRNG: sim.NewStream(cfg.Seed, "users"),
		gpsRNG:  sim.NewStream(cfg.Seed, "gps"),
		result: SingleCellResult{
			ByClass: map[traffic.Class]*metrics.Ratio{
				traffic.Text:  {},
				traffic.Voice: {},
				traffic.Video: {},
			},
		},
	}
	if cfg.QueueTextRequests {
		run.grader, _ = cfg.Controller.(grader)
	}
	sched := sim.NewScheduler()
	for _, req := range gen.Take(cfg.NumRequests) {
		req := req
		if _, err := sched.At(req.ArrivalTime, func(s *sim.Scheduler) {
			run.arrive(s, req)
		}); err != nil {
			return SingleCellResult{}, err
		}
	}
	sched.Run(0)
	// Requests still queued at the end of the run were never admitted.
	for _, q := range run.queue {
		run.result.ByClass[q.req.Call.Class].Observe(false)
	}
	if run.err != nil {
		return SingleCellResult{}, run.err
	}
	return run.result, nil
}

// grader is the optional controller capability the queueing extension
// needs: access to the soft decision grade (FACS exposes it through
// Evaluate).
type grader interface {
	Evaluate(obs gps.Observation, requestBU, usedBU int, handoff bool) (ifacs.Evaluation, error)
}

// queuedRequest is one text request waiting in the NRNA queue.
type queuedRequest struct {
	req        cac.Request
	holding    float64
	enqueuedAt float64
	deadline   float64
}

type singleCellRun struct {
	cfg     SingleCellConfig
	bs      *cell.BaseStation
	step    commitStep
	userRNG *rand.Rand
	gpsRNG  *rand.Rand
	grader  grader
	queue   []queuedRequest
	result  SingleCellResult
	err     error
}

// commitStep is the simulators' decide-commit-notify step: one request
// at a time through a serve.Core in Commit mode, which allocates an
// accepted call on its station and reports it to an observer
// controller, so every decision sees every earlier commit.
type commitStep struct {
	core *serve.Core
	req  [1]cac.Request
	resp [1]serve.Response
}

// admit decides req and reports whether its call was committed. An
// accept the station cannot fit is an error: the controller decided
// against the very state it is committed on.
func (c *commitStep) admit(req cac.Request) (bool, error) {
	c.req[0] = req
	if err := c.core.Decide(c.req[:], c.resp[:], time.Now()); err != nil { //facs:wallclock latency stamp; feeds the Core's latency gauges only
		return false, err
	}
	if err := c.resp[0].Err; err != nil {
		return false, fmt.Errorf("experiments: controller accepted an unfittable call: %w", err)
	}
	return c.resp[0].Committed, nil
}

// arrive handles one connection request.
func (r *singleCellRun) arrive(s *sim.Scheduler, req traffic.Request) {
	if r.err != nil {
		return
	}
	obs, est, err := observeUser(r.cfg, r.userRNG, r.gpsRNG)
	if err != nil {
		r.err = err
		return
	}
	r.result.Occupancy.Add(float64(r.bs.Used()))
	r.result.MeanObservedAngleDeg.Add(math.Abs(obs.AngleDeg))
	r.result.MeanObservedSpeedKmh.Add(obs.SpeedKmh)
	cacReq := cac.Request{
		Call: cell.Call{
			ID:         req.ID,
			Class:      req.Class,
			BU:         req.BU,
			AdmittedAt: s.Now(),
		},
		Station: r.bs,
		Obs:     obs,
		Est:     est,
		Now:     s.Now(),
	}
	admitted := r.admit(s, cacReq, req.HoldingTime)
	if r.err != nil {
		return
	}
	r.result.Requested++
	if admitted {
		r.result.ByClass[req.Class].Observe(true)
		return
	}
	// Queueing extension: hold NRNA text requests instead of rejecting.
	if r.grader != nil && req.Class == traffic.Text {
		ev, err := r.grader.Evaluate(obs, req.BU, r.bs.Used(), false)
		if err != nil {
			r.err = err
			return
		}
		if ev.Grade == ifacs.GradeNRNA {
			r.queue = append(r.queue, queuedRequest{
				req:        cacReq,
				holding:    req.HoldingTime,
				enqueuedAt: s.Now(),
				deadline:   s.Now() + r.cfg.MaxQueueWaitSec,
			})
			r.result.Queued++
			return // outcome decided later
		}
	}
	r.result.ByClass[req.Class].Observe(false)
}

// admit decides req and, when its call is committed, schedules the
// release after holding seconds. A release notifies an observer
// controller and retries the queue.
func (r *singleCellRun) admit(s *sim.Scheduler, req cac.Request, holding float64) bool {
	committed, err := r.step.admit(req)
	if err != nil {
		r.err = err
	}
	if !committed {
		return false
	}
	r.result.Accepted++
	callID := req.Call.ID
	if _, err := s.After(holding, func(s *sim.Scheduler) {
		if _, err := r.step.core.Depart(callID, r.bs, s.Now()); err != nil {
			r.err = err
			return
		}
		r.drainQueue(s)
	}); err != nil {
		r.err = err
	}
	return true
}

// drainQueue retries the queued text requests in FIFO order after
// bandwidth was released, each decided against the station state every
// earlier retry left; requests past their deadline are rejected.
func (r *singleCellRun) drainQueue(s *sim.Scheduler) {
	if r.err != nil {
		return
	}
	remaining := r.queue[:0]
	for _, q := range r.queue {
		class := q.req.Call.Class
		if s.Now() > q.deadline {
			r.result.ByClass[class].Observe(false)
			continue
		}
		q.req.Call.AdmittedAt, q.req.Now = s.Now(), s.Now()
		if !r.admit(s, q.req, q.holding) {
			if r.err != nil {
				return
			}
			remaining = append(remaining, q)
			continue
		}
		r.result.ByClass[class].Observe(true)
		r.result.QueuedAccepted++
		r.result.QueueWait.Add(s.Now() - q.enqueuedAt)
	}
	r.queue = remaining
}

// observeUser samples one user's kinematics, runs the turning-walk /
// GPS pipeline for the configured observation window, and returns the
// admission-time observation relative to the base station at the origin.
func observeUser(cfg SingleCellConfig, userRNG, gpsRNG *rand.Rand) (gps.Observation, gps.Estimate, error) {
	distanceM := geo.KmToM(cfg.DistanceKm.Sample(userRNG))
	bearingFromBS := sim.Uniform(userRNG, -180, 180)
	pos := geo.Move(geo.Point{}, bearingFromBS, distanceM)
	headingToBS := geo.BearingDeg(pos, geo.Point{})
	heading := geo.NormalizeDeg(headingToBS + cfg.AngleOffsetDeg.Sample(userRNG))
	speed := cfg.SpeedKmh.Sample(userRNG)

	walk, err := mobility.NewTurningWalk(
		mobility.State{Pos: pos, SpeedKmh: speed, HeadingDeg: heading},
		mobility.TurningConfig{TurnSigmaDeg: cfg.TurnSigmaDeg, RefSpeedKmh: cfg.RefSpeedKmh},
		userRNG,
	)
	if err != nil {
		return gps.Observation{}, gps.Estimate{}, err
	}
	est, err := warmUp(walk, cfg.GPSNoiseM, cfg.ObserveSteps, gpsRNG)
	if err != nil {
		return gps.Observation{}, gps.Estimate{}, err
	}
	return gps.Observe(est, geo.Point{}), est, nil
}

// warmUp tracks the user on walk with a 1 Hz GPS receiver (per-axis
// noise noiseM) for steps fixes and returns the kinematic estimate an
// admission decision sees.
func warmUp(walk mobility.Model, noiseM float64, steps int, gpsRNG *rand.Rand) (gps.Estimate, error) {
	receiver, err := gps.NewReceiver(walk, gps.ReceiverConfig{
		SampleInterval: 1,
		NoiseSigmaM:    noiseM,
	}, gpsRNG)
	if err != nil {
		return gps.Estimate{}, err
	}
	estimator := gps.NewEstimator(5)
	for _, fix := range receiver.Track(steps) {
		estimator.AddFix(fix)
	}
	est, ok := estimator.Estimate()
	if !ok {
		return gps.Estimate{}, fmt.Errorf("experiments: estimator not ready after %d fixes", steps)
	}
	return est, nil
}
