package gps

import (
	"math"
	"testing"

	"facs/internal/geo"
	"facs/internal/mobility"
	"facs/internal/sim"
)

// constantVelocity is a straight-line mobility.Model: the noise-free
// reference track the receiver and estimator tests check against.
type constantVelocity struct{ state mobility.State }

func (m *constantVelocity) State() mobility.State { return m.state }

func (m *constantVelocity) Step(dt float64) mobility.State {
	if dt > 0 {
		m.state.Pos = geo.Move(m.state.Pos, m.state.HeadingDeg, geo.KmhToMps(m.state.SpeedKmh)*dt)
	}
	return m.state
}

// constantModel starts a straight-line mover at the origin.
func constantModel(speedKmh, headingDeg float64) mobility.Model {
	return &constantVelocity{state: mobility.State{SpeedKmh: speedKmh, HeadingDeg: headingDeg}}
}

// exactConfig samples every sampleInterval seconds without noise.
func exactConfig(sampleInterval float64) ReceiverConfig {
	return ReceiverConfig{SampleInterval: sampleInterval, NoiseSigmaM: -1}
}

func TestReceiverConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     ReceiverConfig
		wantErr bool
	}{
		{"defaults", ReceiverConfig{}, false},
		{"explicit", ReceiverConfig{SampleInterval: 2, NoiseSigmaM: 10}, false},
		{"no noise", exactConfig(1), false},
		{"bad interval", ReceiverConfig{SampleInterval: -1}, true},
		{"NaN interval", ReceiverConfig{SampleInterval: math.NaN()}, true},
		{"NaN sigma", ReceiverConfig{SampleInterval: 1, NoiseSigmaM: math.NaN()}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.withDefaults().Validate()
			if gotErr := err != nil; gotErr != tc.wantErr {
				t.Fatalf("Validate = %v, want error %v", err, tc.wantErr)
			}
		})
	}
}

func TestNewReceiverErrors(t *testing.T) {
	m := constantModel(10, 0)
	if _, err := NewReceiver(nil, ReceiverConfig{}, sim.NewRNG(1)); err == nil {
		t.Fatal("nil model should error")
	}
	if _, err := NewReceiver(m, ReceiverConfig{}, nil); err == nil {
		t.Fatal("nil rng should error")
	}
	if _, err := NewReceiver(m, ReceiverConfig{SampleInterval: -1}, sim.NewRNG(1)); err == nil {
		t.Fatal("invalid config should error")
	}
}

func TestReceiverExactTrack(t *testing.T) {
	// 36 km/h = 10 m/s east, no noise, 1s fixes.
	r, err := NewReceiver(constantModel(36, 0), exactConfig(1), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	fixes := r.Track(5)
	if len(fixes) != 5 {
		t.Fatalf("Track(5) returned %d fixes", len(fixes))
	}
	for i, f := range fixes {
		wantT := float64(i + 1)
		if f.Time != wantT {
			t.Fatalf("fix %d time = %v, want %v", i, f.Time, wantT)
		}
		if !approx(f.Pos.X, 10*wantT, 1e-9) || !approx(f.Pos.Y, 0, 1e-9) {
			t.Fatalf("fix %d pos = %v, want (%v, 0)", i, f.Pos, 10*wantT)
		}
	}
	if r.now != 5 {
		t.Fatalf("receiver clock = %v, want 5", r.now)
	}
	if got := r.Track(0); got != nil {
		t.Fatal("Track(0) should return nil")
	}
}

func TestReceiverNoiseMagnitude(t *testing.T) {
	r, err := NewReceiver(constantModel(0, 0), ReceiverConfig{SampleInterval: 1, NoiseSigmaM: 5}, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	var sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		f := r.NextFix()
		sumSq += f.Pos.X*f.Pos.X + f.Pos.Y*f.Pos.Y
	}
	// Per-axis variance should be ~25 m^2; total ~50.
	if got := sumSq / n; got < 45 || got > 55 {
		t.Fatalf("noise variance = %v, want ~50", got)
	}
}

func TestEstimatorWindowBehaviour(t *testing.T) {
	e := NewEstimator(3)
	if e.Ready() {
		t.Fatal("empty estimator should not be ready")
	}
	if _, ok := e.Estimate(); ok {
		t.Fatal("empty estimator should not estimate")
	}
	e.AddFix(Fix{Time: 1, Pos: geo.Point{X: 0, Y: 0}})
	if e.Ready() {
		t.Fatal("one fix is not enough")
	}
	e.AddFix(Fix{Time: 2, Pos: geo.Point{X: 10, Y: 0}})
	est, ok := e.Estimate()
	if !ok {
		t.Fatal("two fixes should estimate")
	}
	if !approx(est.SpeedKmh, 36, 1e-9) {
		t.Fatalf("speed = %v, want 36", est.SpeedKmh)
	}
	if !approx(est.HeadingDeg, 0, 1e-9) {
		t.Fatalf("heading = %v, want 0", est.HeadingDeg)
	}
	// Window slides: after 4 fixes only the last 3 matter.
	e.AddFix(Fix{Time: 3, Pos: geo.Point{X: 20, Y: 0}})
	e.AddFix(Fix{Time: 4, Pos: geo.Point{X: 20, Y: 20}})
	est, _ = e.Estimate()
	// Oldest in window is t=2 (10,0); newest t=4 (20,20): disp=(10,20)/2s.
	wantSpeed := geo.MpsToKmh(math.Hypot(10, 20) / 2)
	if !approx(est.SpeedKmh, wantSpeed, 1e-9) {
		t.Fatalf("windowed speed = %v, want %v", est.SpeedKmh, wantSpeed)
	}
	if est.Pos != (geo.Point{X: 20, Y: 20}) || est.Time != 4 {
		t.Fatalf("estimate carries wrong newest fix: %+v", est)
	}
}

func TestEstimatorIgnoresOutOfOrderFixes(t *testing.T) {
	e := NewEstimator(4)
	e.AddFix(Fix{Time: 5, Pos: geo.Point{X: 0, Y: 0}})
	e.AddFix(Fix{Time: 4, Pos: geo.Point{X: 100, Y: 0}}) // ignored
	e.AddFix(Fix{Time: 5, Pos: geo.Point{X: 100, Y: 0}}) // ignored (equal time)
	if e.Ready() {
		t.Fatal("out-of-order fixes must be dropped")
	}
	e.AddFix(Fix{Time: 6, Pos: geo.Point{X: 10, Y: 0}})
	est, ok := e.Estimate()
	if !ok || !approx(est.SpeedKmh, 36, 1e-9) {
		t.Fatalf("estimate = %+v, %v", est, ok)
	}
}

func TestNewEstimatorDefaults(t *testing.T) {
	if e := NewEstimator(0); e.window != 4 {
		t.Fatalf("default window = %d, want 4", e.window)
	}
	if e := NewEstimator(1); e.window != 2 {
		t.Fatalf("minimum window = %d, want 2", e.window)
	}
}

func TestObserveGeometry(t *testing.T) {
	bs := geo.Point{X: 0, Y: 0}
	tests := []struct {
		name     string
		est      Estimate
		wantA    float64
		wantDKm  float64
		wantSpdK float64
	}{
		{
			name:    "heading straight at BS",
			est:     Estimate{SpeedKmh: 30, HeadingDeg: 180, Pos: geo.Point{X: 5000, Y: 0}},
			wantA:   0,
			wantDKm: 5,
		},
		{
			name:    "heading directly away",
			est:     Estimate{SpeedKmh: 30, HeadingDeg: 0, Pos: geo.Point{X: 5000, Y: 0}},
			wantA:   180,
			wantDKm: 5,
		},
		{
			name:    "perpendicular left",
			est:     Estimate{SpeedKmh: 30, HeadingDeg: 90, Pos: geo.Point{X: 3000, Y: 0}},
			wantA:   -90,
			wantDKm: 3,
		},
		{
			name:    "perpendicular right",
			est:     Estimate{SpeedKmh: 30, HeadingDeg: -90, Pos: geo.Point{X: 3000, Y: 0}},
			wantA:   90,
			wantDKm: 3,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			obs := Observe(tc.est, bs)
			if !approx(math.Abs(obs.AngleDeg), math.Abs(tc.wantA), 1e-9) {
				t.Fatalf("angle = %v, want %v", obs.AngleDeg, tc.wantA)
			}
			if !approx(obs.DistanceKm, tc.wantDKm, 1e-9) {
				t.Fatalf("distance = %v, want %v", obs.DistanceKm, tc.wantDKm)
			}
			if obs.SpeedKmh != tc.est.SpeedKmh {
				t.Fatalf("speed = %v, want %v", obs.SpeedKmh, tc.est.SpeedKmh)
			}
		})
	}
}

func TestEndToEndEstimationAccuracy(t *testing.T) {
	// A vehicle at 60 km/h heading 45° observed through a noisy receiver:
	// windowed estimation should recover speed within 10% and heading
	// within 10 degrees.
	model := constantModel(60, 45)
	r, err := NewReceiver(model, ReceiverConfig{SampleInterval: 1, NoiseSigmaM: 5}, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEstimator(5)
	var speedSum, headErrSum float64
	var count int
	for i := 0; i < 60; i++ {
		e.AddFix(r.NextFix())
		if est, ok := e.Estimate(); ok {
			speedSum += est.SpeedKmh
			headErrSum += math.Abs(geo.AngleDiffDeg(est.HeadingDeg, 45))
			count++
		}
	}
	if count == 0 {
		t.Fatal("no estimates produced")
	}
	if got := speedSum / float64(count); math.Abs(got-60) > 6 {
		t.Fatalf("mean estimated speed = %v, want ~60", got)
	}
	if got := headErrSum / float64(count); got > 10 {
		t.Fatalf("mean heading error = %v°, want <= 10°", got)
	}
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
