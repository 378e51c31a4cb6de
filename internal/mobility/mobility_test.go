package mobility

import (
	"math"
	"testing"

	"facs/internal/geo"
	"facs/internal/sim"
)

func TestTurningWalkValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	ok := State{Pos: geo.Point{X: 0, Y: 0}, SpeedKmh: 4, HeadingDeg: 0}
	if _, err := NewTurningWalk(ok, TurningConfig{}, rng); err != nil {
		t.Fatalf("defaults should be valid: %v", err)
	}
	if _, err := NewTurningWalk(ok, TurningConfig{}, nil); err == nil {
		t.Fatal("nil rng should error")
	}
	if _, err := NewTurningWalk(State{SpeedKmh: -1}, TurningConfig{}, rng); err == nil {
		t.Fatal("negative speed should error")
	}
	if _, err := NewTurningWalk(ok, TurningConfig{TurnSigmaDeg: -1}, rng); err == nil {
		t.Fatal("negative sigma should error")
	}
	if _, err := NewTurningWalk(ok, TurningConfig{RefSpeedKmh: -5}, rng); err == nil {
		t.Fatal("negative ref speed should error")
	}
}

func TestTurningWalkSpeedDependence(t *testing.T) {
	rng := sim.NewRNG(2)
	slow, err := NewTurningWalk(State{SpeedKmh: 4}, TurningConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewTurningWalk(State{SpeedKmh: 60}, TurningConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if slow.EffectiveTurnSigma() <= fast.EffectiveTurnSigma() {
		t.Fatalf("walking users must turn more: slow=%v fast=%v",
			slow.EffectiveTurnSigma(), fast.EffectiveTurnSigma())
	}
	// Empirically: the mean per-step heading change is larger for walkers.
	meanAbsTurn := func(speed float64, seed int64) float64 {
		m, err := NewTurningWalk(State{SpeedKmh: speed}, TurningConfig{}, sim.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		const n = 2000
		prev := m.State().HeadingDeg
		for i := 0; i < n; i++ {
			h := m.Step(1).HeadingDeg
			sum += math.Abs(geo.AngleDiffDeg(h, prev))
			prev = h
		}
		return sum / n
	}
	if meanAbsTurn(4, 3) <= 2*meanAbsTurn(60, 3) {
		t.Fatal("walkers should turn much more per step than vehicles")
	}
}

func TestTurningWalkZeroDt(t *testing.T) {
	m, err := NewTurningWalk(State{SpeedKmh: 10}, TurningConfig{}, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	before := m.State()
	if got := m.Step(0); got != before {
		t.Fatal("Step(0) should not change state")
	}
}
