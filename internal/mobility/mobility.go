package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"facs/internal/geo"
	"facs/internal/sim"
)

// State is the kinematic state of one mobile terminal.
type State struct {
	// Pos is the position in metres.
	Pos geo.Point
	// SpeedKmh is the scalar speed in km/h.
	SpeedKmh float64
	// HeadingDeg is the travel direction in degrees on (-180, 180].
	HeadingDeg float64
}

// Model advances the kinematic state of a single terminal. Implementations
// are stateful and not safe for concurrent use; each terminal owns one.
type Model interface {
	// State returns the current kinematic state.
	State() State
	// Step advances the model by dt seconds and returns the new state.
	// Non-positive dt leaves the state unchanged.
	Step(dt float64) State
}

// TurningConfig parameterises the speed-dependent turning walk.
type TurningConfig struct {
	// TurnSigmaDeg is the per-sqrt-second standard deviation of heading
	// change for a (hypothetically) stationary user. Default 40°.
	TurnSigmaDeg float64
	// RefSpeedKmh controls how quickly turning calms down with speed: the
	// effective sigma is TurnSigmaDeg / (1 + speed/RefSpeedKmh).
	// Default 15 km/h, so a 60 km/h vehicle turns 5x less than a walker.
	RefSpeedKmh float64
}

func (c TurningConfig) withDefaults() TurningConfig {
	if c.TurnSigmaDeg == 0 {
		c.TurnSigmaDeg = 40
	}
	if c.RefSpeedKmh == 0 {
		c.RefSpeedKmh = 15
	}
	return c
}

// Validate checks the configuration.
func (c TurningConfig) Validate() error {
	if math.IsNaN(c.TurnSigmaDeg) || c.TurnSigmaDeg < 0 {
		return fmt.Errorf("mobility: turn sigma must be >= 0, got %v", c.TurnSigmaDeg)
	}
	if math.IsNaN(c.RefSpeedKmh) || c.RefSpeedKmh <= 0 {
		return fmt.Errorf("mobility: reference speed must be > 0, got %v", c.RefSpeedKmh)
	}
	return nil
}

// TurningWalk is a bounded-heading random walk: each step perturbs the
// heading by a zero-mean Gaussian whose deviation shrinks as speed grows.
// This reproduces the paper's observation that "when the user speed is
// slow (walking users) the prediction of the user direction becomes
// difficult, because the users can change their direction".
type TurningWalk struct {
	cfg   TurningConfig
	rng   *rand.Rand
	state State
}

var _ Model = (*TurningWalk)(nil)

// NewTurningWalk constructs a turning walk starting from the given state.
func NewTurningWalk(start State, cfg TurningConfig, rng *rand.Rand) (*TurningWalk, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("mobility: rng must not be nil")
	}
	if math.IsNaN(start.SpeedKmh) || start.SpeedKmh < 0 {
		return nil, fmt.Errorf("mobility: speed must be >= 0 km/h, got %v", start.SpeedKmh)
	}
	start.HeadingDeg = geo.NormalizeDeg(start.HeadingDeg)
	return &TurningWalk{cfg: cfg, rng: rng, state: start}, nil
}

// State implements Model.
func (m *TurningWalk) State() State { return m.state }

// EffectiveTurnSigma returns the heading deviation (degrees per sqrt
// second) at the walker's current speed.
func (m *TurningWalk) EffectiveTurnSigma() float64 {
	return m.cfg.TurnSigmaDeg / (1 + m.state.SpeedKmh/m.cfg.RefSpeedKmh)
}

// Step implements Model.
func (m *TurningWalk) Step(dt float64) State {
	if dt <= 0 {
		return m.state
	}
	sigma := m.EffectiveTurnSigma() * math.Sqrt(dt)
	m.state.HeadingDeg = geo.NormalizeDeg(m.state.HeadingDeg + sim.Normal(m.rng, 0, sigma))
	m.state.Pos = geo.Move(m.state.Pos, m.state.HeadingDeg, geo.KmhToMps(m.state.SpeedKmh)*dt)
	return m.state
}
