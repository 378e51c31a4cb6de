package gps

import (
	"fmt"
	"math"
	"math/rand"

	"facs/internal/geo"
	"facs/internal/mobility"
	"facs/internal/sim"
)

// Fix is one GPS position report.
type Fix struct {
	// Time is the simulation time of the fix in seconds.
	Time float64
	// Pos is the reported (noisy) position in metres.
	Pos geo.Point
}

// ReceiverConfig parameterises a simulated GPS receiver.
type ReceiverConfig struct {
	// SampleInterval is the gap between fixes in seconds. Default 1s.
	SampleInterval float64
	// NoiseSigmaM is the per-axis Gaussian position error in metres.
	// Zero selects the default of 5m, a typical consumer GPS figure;
	// any negative value disables noise entirely.
	NoiseSigmaM float64
}

func (c ReceiverConfig) withDefaults() ReceiverConfig {
	if c.SampleInterval == 0 {
		c.SampleInterval = 1
	}
	switch {
	case c.NoiseSigmaM == 0:
		c.NoiseSigmaM = 5
	case c.NoiseSigmaM < 0:
		c.NoiseSigmaM = 0
	}
	return c
}

// Validate checks the configuration.
func (c ReceiverConfig) Validate() error {
	if math.IsNaN(c.SampleInterval) || c.SampleInterval <= 0 {
		return fmt.Errorf("gps: sample interval must be > 0, got %v", c.SampleInterval)
	}
	if math.IsNaN(c.NoiseSigmaM) {
		return fmt.Errorf("gps: noise sigma must not be NaN")
	}
	return nil
}

// Receiver attaches a simulated GPS unit to a mobility model.
type Receiver struct {
	cfg   ReceiverConfig
	model mobility.Model
	rng   *rand.Rand
	now   float64
}

// NewReceiver constructs a receiver over the given mobility model.
func NewReceiver(model mobility.Model, cfg ReceiverConfig, rng *rand.Rand) (*Receiver, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("gps: mobility model must not be nil")
	}
	if rng == nil {
		return nil, fmt.Errorf("gps: rng must not be nil")
	}
	return &Receiver{cfg: cfg, model: model, rng: rng}, nil
}

// NextFix advances the mobility model by one sample interval and returns
// the resulting noisy fix.
func (r *Receiver) NextFix() Fix {
	st := r.model.Step(r.cfg.SampleInterval)
	r.now += r.cfg.SampleInterval
	pos := st.Pos
	if r.cfg.NoiseSigmaM > 0 {
		pos.X += sim.Normal(r.rng, 0, r.cfg.NoiseSigmaM)
		pos.Y += sim.Normal(r.rng, 0, r.cfg.NoiseSigmaM)
	}
	return Fix{Time: r.now, Pos: pos}
}

// Track produces the next n fixes.
func (r *Receiver) Track(n int) []Fix {
	if n <= 0 {
		return nil
	}
	out := make([]Fix, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.NextFix())
	}
	return out
}

// Estimate is a kinematic estimate derived from a fix stream.
type Estimate struct {
	// SpeedKmh is the estimated scalar speed in km/h.
	SpeedKmh float64
	// HeadingDeg is the estimated travel direction on (-180, 180].
	HeadingDeg float64
	// Pos is the most recent reported position.
	Pos geo.Point
	// Time is the time of the most recent fix.
	Time float64
}

// Estimator turns a stream of fixes into kinematic estimates using a
// sliding window: heading and speed are computed from the displacement
// between the oldest and newest fix in the window, which suppresses
// per-fix noise at the cost of a little lag — exactly the trade-off a
// real GPS-based predictor faces.
type Estimator struct {
	window int
	fixes  []Fix
}

// NewEstimator constructs an estimator with the given window size
// (minimum 2 fixes; default 4 when window <= 0).
func NewEstimator(window int) *Estimator {
	if window <= 0 {
		window = 4
	}
	if window < 2 {
		window = 2
	}
	return &Estimator{window: window}
}

// AddFix appends a fix to the window, discarding the oldest beyond the
// window size. Fixes must be added in time order; out-of-order fixes are
// ignored.
func (e *Estimator) AddFix(f Fix) {
	if n := len(e.fixes); n > 0 && f.Time <= e.fixes[n-1].Time {
		return
	}
	e.fixes = append(e.fixes, f)
	if len(e.fixes) > e.window {
		e.fixes = e.fixes[1:]
	}
}

// Ready reports whether enough fixes are buffered to estimate.
func (e *Estimator) Ready() bool { return len(e.fixes) >= 2 }

// Estimate returns the current kinematic estimate, or false when fewer
// than two fixes are buffered.
func (e *Estimator) Estimate() (Estimate, bool) {
	if !e.Ready() {
		return Estimate{}, false
	}
	oldest := e.fixes[0]
	newest := e.fixes[len(e.fixes)-1]
	dt := newest.Time - oldest.Time
	if dt <= 0 {
		return Estimate{}, false
	}
	disp := newest.Pos.Sub(oldest.Pos)
	return Estimate{
		SpeedKmh:   geo.MpsToKmh(disp.Length() / dt),
		HeadingDeg: disp.HeadingDeg(),
		Pos:        newest.Pos,
		Time:       newest.Time,
	}, true
}

// Observation is the FLC1 input triple for one user relative to one base
// station.
type Observation struct {
	// SpeedKmh is the user speed estimate (paper input S, 0..120 km/h).
	SpeedKmh float64
	// AngleDeg is the deviation of the user's heading from the bearing
	// towards the base station (paper input A, -180..180 degrees).
	// Zero means moving straight at the BS; ±180 means directly away.
	AngleDeg float64
	// DistanceKm is the user-BS distance (paper input D, 0..10 km).
	DistanceKm float64
}

// Observe derives the FLC1 inputs from a kinematic estimate and the base
// station position.
func Observe(est Estimate, bs geo.Point) Observation {
	bearingToBS := geo.BearingDeg(est.Pos, bs)
	return Observation{
		SpeedKmh:   est.SpeedKmh,
		AngleDeg:   geo.AngleDiffDeg(est.HeadingDeg, bearingToBS),
		DistanceKm: geo.MToKm(est.Pos.DistanceTo(bs)),
	}
}
