package scc

import (
	"fmt"
	"math"
	"sort"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
)

// Config parameterises the shadow-cluster controller.
type Config struct {
	// Network is the cellular deployment the controller projects over.
	Network *cell.Network
	// DeltaT is the projection time quantum in seconds. Default 10.
	DeltaT float64
	// Horizon is the number of future intervals projected. Default 6.
	Horizon int
	// Threshold is the survivability fraction tau of cell capacity that
	// projected demand must not exceed. Default 0.85.
	Threshold float64
	// SigmaPosM is the base position uncertainty in metres. Default 100.
	SigmaPosM float64
	// SpreadAlpha grows the position uncertainty per metre of projected
	// travel, widening the shadow for fast or distant projections.
	// Default 0.3.
	SpreadAlpha float64
	// MinProb is the probability mass below which a cell is excluded
	// from a shadow cluster. Default 0.02.
	MinProb float64
	// Reservation names the demand-accumulation semantics. Full
	// reservation is the only one: zero means ReservationFull, and
	// Validate refuses any other value. The field remains so that
	// configurations naming ReservationFull still build.
	Reservation ReservationMode
	// InclusionProb is the probability mass from which a tracked call
	// reserves its full bandwidth in a cell. Default 0.15.
	InclusionProb float64
	// MaxSpeedKmh declares a workload bound the caller promises to
	// respect: every admission request's (and every tracked call's)
	// position lies within one cell radius of its home station's centre,
	// and no speed exceeds MaxSpeedKmh. Under that promise the Ledger
	// can bound how far from a home cell a decision ever reads demand
	// (InterestRadiusCells), which lets the sharded engine scope ghost
	// fan-out to interested shards only. Zero (the default) declares no
	// bound: InterestRadiusCells reports unbounded and the engine keeps
	// the all-to-all exchange. The bound affects routing of exchanged
	// rows only, never the demand math itself — a declared bound that
	// the workload honours leaves every decision byte-identical.
	MaxSpeedKmh float64
	// RequireClusterCoverage, when set, denies calls whose dead-reckoned
	// trajectory leaves network coverage within the projection horizon:
	// the shadow cluster cannot be established because no base station
	// outside the operator's network can commit resources (Levine et
	// al.'s survivability-over-the-predicted-path requirement). Off by
	// default; the Fig. 10 comparison enables it.
	RequireClusterCoverage bool
}

// ReservationMode names how a tracked call's shadow turns into
// projected demand.
type ReservationMode int

// ReservationFull reserves the full bandwidth, undecayed, in every cell
// where the presence probability reaches InclusionProb. This is the
// conservative "deny network access to protect active mobiles"
// behaviour the paper ascribes to SCC and compares against in Fig. 10.
const ReservationFull ReservationMode = 2

func (c Config) withDefaults() Config {
	if c.DeltaT == 0 {
		c.DeltaT = 10
	}
	if c.Horizon == 0 {
		c.Horizon = 6
	}
	if c.Threshold == 0 {
		c.Threshold = 0.85
	}
	if c.SigmaPosM == 0 {
		c.SigmaPosM = 100
	}
	if c.SpreadAlpha == 0 {
		c.SpreadAlpha = 0.3
	}
	if c.MinProb == 0 {
		c.MinProb = 0.02
	}
	if c.Reservation == 0 {
		c.Reservation = ReservationFull
	}
	if c.InclusionProb == 0 {
		c.InclusionProb = 0.15
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Network == nil:
		return fmt.Errorf("scc: network must not be nil")
	case math.IsNaN(c.DeltaT) || c.DeltaT <= 0:
		return fmt.Errorf("scc: delta-t must be > 0, got %v", c.DeltaT)
	case c.Horizon < 1:
		return fmt.Errorf("scc: horizon must be >= 1, got %d", c.Horizon)
	case math.IsNaN(c.Threshold) || c.Threshold <= 0 || c.Threshold > 1:
		return fmt.Errorf("scc: threshold must be in (0, 1], got %v", c.Threshold)
	case math.IsNaN(c.SigmaPosM) || c.SigmaPosM <= 0:
		return fmt.Errorf("scc: sigma must be > 0, got %v", c.SigmaPosM)
	case math.IsNaN(c.SpreadAlpha) || c.SpreadAlpha < 0:
		return fmt.Errorf("scc: spread alpha must be >= 0, got %v", c.SpreadAlpha)
	case math.IsNaN(c.MinProb) || c.MinProb <= 0 || c.MinProb >= 1:
		return fmt.Errorf("scc: min probability must be in (0, 1), got %v", c.MinProb)
	case c.Reservation != 0 && c.Reservation != ReservationFull:
		return fmt.Errorf("scc: unknown reservation mode %d", int(c.Reservation))
	case math.IsNaN(c.InclusionProb) || c.InclusionProb <= 0 || c.InclusionProb >= 1:
		return fmt.Errorf("scc: inclusion probability must be in (0, 1), got %v", c.InclusionProb)
	case math.IsNaN(c.MaxSpeedKmh) || c.MaxSpeedKmh < 0:
		return fmt.Errorf("scc: max speed must be >= 0, got %v", c.MaxSpeedKmh)
	}
	return nil
}

// track is the projection source for one active call.
type track struct {
	bu         int
	pos        geo.Point
	headingDeg float64
	speedMps   float64
	home       geo.Hex
}

// Controller is the shadow-cluster admission controller in its original
// recompute-on-query form: every Decide and ExpectedDemand re-derives the
// Gaussian shadow of every tracked call, so Decide is
// O(active x horizon x stations). It is kept as the reference oracle for
// the incrementally maintained Ledger (see ledger.go and DESIGN.md); use
// Ledger on hot admission paths.
//
// It implements cac.Controller, cac.Observer and cac.StateUpdater. It is
// not safe for concurrent use; the simulation kernel is single-threaded.
type Controller struct {
	cfg      Config
	stations []*cell.BaseStation
	active   map[int]track
	// ids mirrors the keys of active in ascending order, so that demand
	// aggregation iterates (and therefore sums) in a deterministic order
	// without re-sorting on every query.
	ids []int
	// Scratch buffers reused across queries (the controller is
	// single-threaded by contract). reqShadow holds the shadow of the
	// request under decision, trackShadow the shadow of one tracked call
	// inside the demand aggregation; they must stay distinct because
	// Decide holds reqShadow across its ExpectedDemand calls.
	weights     []float64
	reqShadow   []CellProb
	trackShadow []CellProb
}

var (
	_ cac.Controller   = (*Controller)(nil)
	_ cac.Observer     = (*Controller)(nil)
	_ cac.StateUpdater = (*Controller)(nil)
)

// New constructs a shadow-cluster controller.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		cfg:      cfg,
		stations: cfg.Network.Stations(),
		active:   make(map[int]track),
		weights:  make([]float64, cfg.Network.NumCells()),
	}, nil
}

// Name implements cac.Controller.
func (c *Controller) Name() string { return "scc" }

// Config returns the effective configuration (defaults applied).
func (c *Controller) Config() Config { return c.cfg }

// ActiveCalls returns the number of calls currently projecting shadows.
func (c *Controller) ActiveCalls() int { return len(c.active) }

// CellProb is one entry of a shadow: the probability that a mobile is in
// the given cell at a given projection interval.
type CellProb struct {
	Hex  geo.Hex
	Prob float64
}

// appendShadow computes the shadow distribution of one mobile at
// projection interval k and appends the entries above MinProb to dst,
// reusing weights (which must have len(stations) capacity) as scratch.
// Entries are appended in station (Q, R) order, unsorted by probability.
// It is the reference shadow: the recompute Controller calls it, and the
// Ledger calls it whenever its class shadow cannot certify a cluster.
func appendShadow(cfg *Config, stations []*cell.BaseStation, weights []float64, dst []CellProb, pos geo.Point, headingDeg, speedMps float64, k int) []CellProb {
	q, inv := projection(cfg, pos, geo.UnitFromHeading(headingDeg), speedMps, k)
	weights = weights[:len(stations)]
	var total float64
	for i, bs := range stations {
		d := q.DistanceTo(bs.Pos())
		w := math.Exp(-d * d * inv)
		weights[i] = w
		total += w
	}
	if total == 0 {
		// Projection far outside coverage: all mass collapses onto the
		// nearest cell so that demand is still accounted somewhere.
		best, bestD := 0, math.Inf(1)
		for i, bs := range stations {
			if d := q.DistanceTo(bs.Pos()); d < bestD {
				best, bestD = i, d
			}
		}
		for i := range weights {
			weights[i] = 0
		}
		weights[best], total = 1, 1
	}
	for i, bs := range stations {
		p := weights[i] / total
		if p >= cfg.MinProb {
			dst = append(dst, CellProb{Hex: bs.Hex(), Prob: p})
		}
	}
	return dst
}

// projection returns where a mobile at pos, moving along the unit heading
// vector at speedMps, is dead-reckoned to at projection interval k
// (negative k clamps to 0), and the scale inv = 1/(2σ²) of its Gaussian
// shadow there, so a station at distance d weighs exp(-d·d·inv). It is
// the one copy of this arithmetic: appendShadow and the Ledger's class
// shadow both call it, so a fused multiply-add (which the compiler may
// form on some architectures) applies to both alike and they cannot
// drift apart. q equals geo.Move(pos, heading, travel) bit for bit.
func projection(cfg *Config, pos geo.Point, unit geo.Vector, speedMps float64, k int) (q geo.Point, inv float64) {
	if k < 0 {
		k = 0
	}
	travel := speedMps * float64(k) * cfg.DeltaT
	sigma := cfg.SigmaPosM + cfg.SpreadAlpha*travel
	return pos.Add(unit.Scale(travel)), 1 / (2 * sigma * sigma)
}

// Shadow returns the probability distribution over network cells for a
// mobile with the given kinematics at projection interval k (k=0 is now).
// Entries below MinProb are dropped; the result is sorted by descending
// probability, ties broken by (Q, R) for determinism.
func (c *Controller) Shadow(pos geo.Point, headingDeg, speedMps float64, k int) []CellProb {
	out := appendShadow(&c.cfg, c.stations, c.weights, nil, pos, headingDeg, speedMps, k)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		if out[i].Hex.Q != out[j].Hex.Q {
			return out[i].Hex.Q < out[j].Hex.Q
		}
		return out[i].Hex.R < out[j].Hex.R
	})
	return out
}

// ExpectedDemand returns the aggregated projected demand E[j, k] in BU for
// cell j at interval k over all tracked calls: the float sum, in
// ascending call-ID order, of each call's reservation there (its
// bandwidth or 0). It is the Ledger's independent check.
func (c *Controller) ExpectedDemand(j geo.Hex, k int) float64 {
	var sum float64
	for _, id := range c.ids {
		tr := c.active[id]
		c.trackShadow = appendShadow(&c.cfg, c.stations, c.weights, c.trackShadow[:0], tr.pos, tr.headingDeg, tr.speedMps, k)
		for _, cp := range c.trackShadow {
			if cp.Hex == j {
				sum += float64(reserve(&c.cfg, tr.bu, cp.Prob))
				break
			}
		}
	}
	return sum
}

// reserve is the reservation rule: a shadow entry of probability prob
// reserves a call's full bandwidth bu when prob reaches InclusionProb,
// and nothing otherwise.
func reserve(cfg *Config, bu int, prob float64) int {
	if prob >= cfg.InclusionProb {
		return bu
	}
	return 0
}

// Decide implements cac.Controller: the request is admitted when, for
// every projection interval and every cell its tentative shadow cluster
// touches, existing projected demand plus the request's own projected
// demand stays within Threshold of the cell capacity.
func (c *Controller) Decide(req cac.Request) (cac.Decision, error) {
	if err := req.Validate(); err != nil {
		return cac.Reject, err
	}
	if !req.Station.Fits(req.Call.BU) {
		return cac.Reject, nil
	}
	pos := req.Est.Pos
	speedMps := geo.KmhToMps(req.Est.SpeedKmh)
	if c.cfg.RequireClusterCoverage {
		for k := 1; k <= c.cfg.Horizon; k++ {
			q := geo.Move(pos, req.Est.HeadingDeg, speedMps*float64(k)*c.cfg.DeltaT)
			if _, err := c.cfg.Network.StationAt(q); err != nil {
				return cac.Reject, nil
			}
		}
	}
	for k := 0; k <= c.cfg.Horizon; k++ {
		c.reqShadow = appendShadow(&c.cfg, c.stations, c.weights, c.reqShadow[:0], pos, req.Est.HeadingDeg, speedMps, k)
		for _, cp := range c.reqShadow {
			bs, ok := c.cfg.Network.At(cp.Hex)
			if !ok {
				continue
			}
			projected := c.ExpectedDemand(cp.Hex, k) + float64(reserve(&c.cfg, req.Call.BU, cp.Prob))
			if projected > c.cfg.Threshold*float64(bs.Capacity()) {
				return cac.Reject, nil
			}
		}
	}
	return cac.Accept, nil
}

// insertID adds id to a sorted id slice unless already present.
func insertID(ids []int, id int) []int {
	i := sort.SearchInts(ids, id)
	if i < len(ids) && ids[i] == id {
		return ids
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// removeID deletes id from a sorted id slice if present.
func removeID(ids []int, id int) []int {
	i := sort.SearchInts(ids, id)
	if i == len(ids) || ids[i] != id {
		return ids
	}
	return append(ids[:i], ids[i+1:]...)
}

// OnAdmit implements cac.Observer: start projecting the call's shadow.
func (c *Controller) OnAdmit(req cac.Request) {
	c.ids = insertID(c.ids, req.Call.ID)
	c.active[req.Call.ID] = track{
		bu:         req.Call.BU,
		pos:        req.Est.Pos,
		headingDeg: req.Est.HeadingDeg,
		speedMps:   geo.KmhToMps(req.Est.SpeedKmh),
		home:       req.Station.Hex(),
	}
}

// OnRelease implements cac.Observer: stop projecting the call's shadow.
func (c *Controller) OnRelease(callID int, _ *cell.BaseStation, _ float64) {
	if _, ok := c.active[callID]; !ok {
		return
	}
	c.ids = removeID(c.ids, callID)
	delete(c.active, callID)
}

// OnStateUpdate implements cac.StateUpdater.
func (c *Controller) OnStateUpdate(callID int, est gps.Estimate, station *cell.BaseStation) {
	c.UpdateState(callID, est.Pos, est.HeadingDeg, est.SpeedKmh, station.Hex())
}

// UpdateState refreshes the projection source of a tracked call, e.g.
// after a handoff delivered a new position estimate. Unknown calls are
// ignored.
func (c *Controller) UpdateState(callID int, pos geo.Point, headingDeg, speedKmh float64, home geo.Hex) {
	tr, ok := c.active[callID]
	if !ok {
		return
	}
	tr.pos = pos
	tr.headingDeg = headingDeg
	tr.speedMps = geo.KmhToMps(speedKmh)
	tr.home = home
	c.active[callID] = tr
}
