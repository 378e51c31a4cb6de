package facs

import (
	"fmt"

	"facs/internal/cac"
	"facs/internal/fuzzy"
	"facs/internal/gps"
)

// DefaultAcceptThreshold is the crisp decision boundary on the A/R axis:
// the midpoint between the NotRejectNotAccept centre (0) and the
// WeakAccept centre (+0.5). Requests defuzzifying at or above it are
// admitted.
const DefaultAcceptThreshold = 0.25

// Grade is the soft admission decision of FLC2, the five output terms of
// the paper's A/R variable.
type Grade int

// The five decision grades.
const (
	GradeReject Grade = iota + 1
	GradeWeakReject
	GradeNRNA
	GradeWeakAccept
	GradeAccept
)

// String implements fmt.Stringer.
func (g Grade) String() string {
	switch g {
	case GradeReject:
		return "reject"
	case GradeWeakReject:
		return "weak-reject"
	case GradeNRNA:
		return "not-reject-not-accept"
	case GradeWeakAccept:
		return "weak-accept"
	case GradeAccept:
		return "accept"
	default:
		return fmt.Sprintf("Grade(%d)", int(g))
	}
}

func gradeFromTerm(term string) Grade {
	switch term {
	case TermReject:
		return GradeReject
	case TermWeakReject:
		return GradeWeakReject
	case TermNRNA:
		return GradeNRNA
	case TermWeakAccept:
		return GradeWeakAccept
	case TermAccept:
		return GradeAccept
	default:
		return 0
	}
}

// Option configures a System.
type Option func(*System)

// WithParams overrides the membership break-points (default
// DefaultParams).
func WithParams(p Params) Option { return func(s *System) { s.params = p } }

// WithAcceptThreshold overrides the crisp decision boundary (default
// DefaultAcceptThreshold).
func WithAcceptThreshold(t float64) Option { return func(s *System) { s.acceptThreshold = t } }

// WithDefuzzifier selects the defuzzifier used by both controllers
// (default fuzzy.Centroid).
func WithDefuzzifier(mk func() fuzzy.Defuzzifier) Option {
	return func(s *System) { s.mkDefuzz = mk }
}

// WithTNorm selects the antecedent combination operator (default min).
func WithTNorm(t fuzzy.TNorm) Option { return func(s *System) { s.tnorm = t } }

// WithImplication selects the implication operator (default clip).
func WithImplication(im fuzzy.Implication) Option { return func(s *System) { s.implication = im } }

// WithResolution sets the defuzzification sample count (default 201).
func WithResolution(n int) Option { return func(s *System) { s.resolution = n } }

// WithHandoffBias adds a fixed bonus to the crisp A/R value of handoff
// requests, prioritising them over new calls. The paper leaves call
// priority to future work; the default is 0 (no priority).
func WithHandoffBias(b float64) Option { return func(s *System) { s.handoffBias = b } }

// System is the Fuzzy Admission Control System: FLC1 and FLC2 in series
// plus the crisp decision boundary. It implements cac.Controller.
//
// A System is immutable after construction and safe for concurrent use.
type System struct {
	params          Params
	acceptThreshold float64
	mkDefuzz        func() fuzzy.Defuzzifier
	tnorm           fuzzy.TNorm
	implication     fuzzy.Implication
	resolution      int
	handoffBias     float64

	flc1   *fuzzy.Engine
	flc2   *fuzzy.Engine
	grades []Grade // per FLC2 output term, in declaration order
}

var (
	_ cac.Controller      = (*System)(nil)
	_ cac.BatchController = (*System)(nil)
	_ cac.CellLocal       = (*System)(nil)
)

// New constructs a FACS with the paper's defaults, applying any options.
func New(opts ...Option) (*System, error) {
	s := &System{
		params:          DefaultParams(),
		acceptThreshold: DefaultAcceptThreshold,
		mkDefuzz:        func() fuzzy.Defuzzifier { return fuzzy.Centroid{} },
		tnorm:           fuzzy.TNormMin,
		implication:     fuzzy.ImplicationClip,
		resolution:      201,
	}
	for _, opt := range opts {
		opt(s)
	}
	engineOpts := func() []fuzzy.Option {
		return []fuzzy.Option{
			fuzzy.WithTNorm(s.tnorm),
			fuzzy.WithImplication(s.implication),
			fuzzy.WithDefuzzifier(s.mkDefuzz()),
			fuzzy.WithResolution(s.resolution),
		}
	}
	var err error
	s.flc1, err = NewFLC1(s.params, engineOpts()...)
	if err != nil {
		return nil, err
	}
	s.flc2, err = NewFLC2(s.params, engineOpts()...)
	if err != nil {
		return nil, err
	}
	if s.acceptThreshold < -1 || s.acceptThreshold > 1 {
		return nil, fmt.Errorf("facs: accept threshold %v outside [-1, 1]", s.acceptThreshold)
	}
	for _, t := range s.flc2.Output().Terms() {
		s.grades = append(s.grades, gradeFromTerm(t.Name))
	}
	return s, nil
}

// Must constructs a FACS and panics on error; intended for the default
// configuration, which is statically known to be valid.
func Must(opts ...Option) *System {
	s, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements cac.Controller.
func (s *System) Name() string { return "facs" }

// CellLocal implements cac.CellLocal: a decision reads the request plus
// the occupancy of the request's own station; the engines are immutable
// and the System is safe for concurrent use, so one instance may be
// shared across the shards of a sharded admission engine.
func (s *System) CellLocal() {}

// FLC1 returns the compiled prediction controller.
func (s *System) FLC1() *fuzzy.Engine { return s.flc1 }

// FLC2 returns the compiled admission controller.
func (s *System) FLC2() *fuzzy.Engine { return s.flc2 }

// AcceptThreshold returns the crisp decision boundary.
func (s *System) AcceptThreshold() float64 { return s.acceptThreshold }

// Evaluation is the full trace of one FACS decision.
type Evaluation struct {
	// Cv is FLC1's correction value in [0, 1].
	Cv float64
	// AR is FLC2's crisp accept/reject value in [-1, 1], including any
	// handoff bias.
	AR float64
	// Grade is the output term with the highest membership at AR.
	Grade Grade
	// Accepted reports AR >= the accept threshold.
	Accepted bool
}

// Predict runs only FLC1, returning the correction value for an
// observation.
func (s *System) Predict(obs gps.Observation) (float64, error) {
	cv, err := s.flc1.EvaluateVec(obs.SpeedKmh, obs.AngleDeg, obs.DistanceKm)
	if err != nil {
		return 0, fmt.Errorf("facs: FLC1: %w", err) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	return cv, nil
}

// Evaluate runs the full two-stage inference for a request of requestBU
// bandwidth units against a station currently occupying usedBU.
func (s *System) Evaluate(obs gps.Observation, requestBU, usedBU int, handoff bool) (Evaluation, error) {
	cv, err := s.Predict(obs)
	if err != nil {
		return Evaluation{}, err
	}
	return s.evaluateCv(cv, requestBU, usedBU, handoff)
}

// evaluateCv is Evaluate's second stage: FLC2 and the decision
// boundary at a given correction value.
func (s *System) evaluateCv(cv float64, requestBU, usedBU int, handoff bool) (Evaluation, error) {
	ar, err := s.flc2.EvaluateVec(cv, float64(requestBU), float64(usedBU))
	if err != nil {
		return Evaluation{}, fmt.Errorf("facs: FLC2: %w", err) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	if handoff {
		ar += s.handoffBias
		if ar > 1 {
			ar = 1
		}
	}
	ev := Evaluation{
		Cv:       cv,
		AR:       ar,
		Grade:    s.grade(ar),
		Accepted: ar >= s.acceptThreshold,
	}
	return ev, nil
}

// grade is the decision grade at a crisp A/R value: the Grade of the
// output term with the highest membership there, by term index.
func (s *System) grade(ar float64) Grade {
	if i := s.flc2.Output().HighestTermIndex(ar); i >= 0 {
		return s.grades[i]
	}
	return 0
}

// DecideBatch implements cac.BatchController. The exact engines have
// no per-request state to amortise, so this is a plain sequential pass;
// the method declares batch capability so the pipeline treats every
// FACS variant uniformly.
func (s *System) DecideBatch(reqs []cac.Request) ([]cac.Decision, error) {
	out := make([]cac.Decision, len(reqs))
	if err := s.DecideBatchInto(reqs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecideBatchInto implements cac.BatchIntoController: DecideBatch
// semantics into a caller-provided buffer. The Mamdani inference is
// allocation-free, so with the buffer the whole pass is.
//
//facs:hotpath
func (s *System) DecideBatchInto(reqs []cac.Request, out []cac.Decision) error {
	for i := range reqs {
		d, err := s.Decide(reqs[i])
		if err != nil {
			return err
		}
		out[i] = d
	}
	return nil
}

// Decide implements cac.Controller: the request is admitted when the
// defuzzified A/R value clears the accept threshold and the station can
// physically carry the call.
func (s *System) Decide(req cac.Request) (cac.Decision, error) {
	if err := req.Validate(); err != nil {
		return cac.Reject, err
	}
	if !req.Station.Fits(req.Call.BU) {
		return cac.Reject, nil
	}
	ev, err := s.Evaluate(req.Obs, req.Call.BU, req.Station.Used(), req.Handoff)
	if err != nil {
		return cac.Reject, err
	}
	if ev.Accepted {
		return cac.Accept, nil
	}
	return cac.Reject, nil
}
