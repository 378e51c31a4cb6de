package facs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/fuzzy"
	"facs/internal/gps"
)

// DefaultSurfaceGridSize is the per-axis lookup-table resolution used by
// NewCompiled when none is given. See fuzzy.DefaultSurfaceGridSize for
// the accuracy rationale; the golden-equivalence tests pin the realised
// error at this size.
const DefaultSurfaceGridSize = fuzzy.DefaultSurfaceGridSize

// surfaceErrorSafety scales the sampled interpolation error bounds
// (fuzzy.WithSurfaceErrorMap). A single centre probe can under-read
// the peak error of a cell crossed asymmetrically by a t-norm crease;
// doubling it gives the guard band and the accept table their margin.
// The golden-equivalence suite and TestDecisionTableMatchesExact verify
// empirically that the resulting guards are sound (zero decision or
// grade flips).
const surfaceErrorSafety = 2

// CompiledController is the lookup-table fast path of the FACS: both
// controllers compiled into dense interpolation surfaces
// (FLC1: speed x angle x distance -> Cv; FLC2: Cv x R x Cs -> A/R) at
// construction time.
//
// An admission decision (Decide, DecideBatchInto) is compare-only, in
// three steps. A per-(handoff, R, Cs) accept table of certain Cv
// intervals, built from the FLC2 surface's node values and node-aligned
// error bounds, answers whether a Cv range has one verdict. First the
// cell check asks it about the range FLC1's exact output can take
// anywhere in the query's FLC1 grid cell (fuzzy.CellRanges): one read
// per request, no interpolation. On a miss the point check interpolates
// Cv and its error bound b1 and asks about [Cv−b1, Cv+b1], which lies
// inside the cell range, so a cell verdict is as sound as a point
// verdict and the requests that reach the third step, the exact
// engines, are the ones the point check alone would send there. That
// step runs exact FLC1 and asks the table about the exact Cv itself;
// only where no certain interval holds it does exact FLC2 run.
// Evaluate, which also reports the crisp values and the grade,
// interpolates both surfaces and falls back when the A/R value lands
// within the propagated bound of the accept threshold or a grade
// boundary. Either way decisions and grades match the exact System;
// the crisp Cv and A/R values themselves carry the small interpolation
// tolerance documented in the golden-equivalence test suite
// (internal/facs/compiled_test.go).
//
// A CompiledController is immutable after construction (the fallback
// counters aside) and safe for concurrent use.
type CompiledController struct {
	sys        *System
	surf1      *fuzzy.Surface
	surf2      *fuzzy.Surface
	boundaries []float64 // accept threshold + grade switch points, on the A/R axis
	table      acceptTable
	cells      *fuzzy.CellRanges // FLC1's range per grid cell

	fast  atomic.Int64
	exact atomic.Int64
	cell  atomic.Int64 // the fast decisions the cell check settled
}

var (
	_ cac.Controller      = (*CompiledController)(nil)
	_ cac.BatchController = (*CompiledController)(nil)
	_ cac.CellLocal       = (*CompiledController)(nil)
)

// CellLocal implements cac.CellLocal: like the exact System, a decision
// reads only the request and its station's occupancy against immutable
// surfaces, and the controller is safe for concurrent use — one
// instance may be shared across the shards of a sharded engine.
func (c *CompiledController) CellLocal() {}

// NewCompiled constructs the exact System for the given options, then
// compiles both controllers into surfaces with gridSize uniform nodes
// per axis (gridSize <= 0 selects DefaultSurfaceGridSize). Compilation
// evaluates the exact engines over the whole grid and is sharded
// across CPUs; it is a one-time cost paid to make every subsequent
// decision cheap.
func NewCompiled(gridSize int, opts ...Option) (*CompiledController, error) {
	sys, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return CompileSystem(sys, gridSize)
}

// compileCount counts completed surface compilations process-wide (one
// per compiled System, i.e. per FLC1+FLC2 surface pair). Cached loads
// (CompileSystemCached) do not increment it, which is exactly what the
// cache tests assert: a warm start leaves the counter unchanged.
var compileCount atomic.Int64

// CompileCount returns the number of surface compilations performed by
// this process so far. It is a diagnostic for the load-or-compile
// cache: a service that starts from a warm cache reports zero.
func CompileCount() int64 { return compileCount.Load() }

// CompileSystem compiles an already constructed System into a
// CompiledController without rebuilding it.
func CompileSystem(sys *System, gridSize int) (*CompiledController, error) {
	if sys == nil {
		return nil, fmt.Errorf("facs: compile needs a system")
	}
	if gridSize <= 0 {
		gridSize = DefaultSurfaceGridSize
	}
	surf1, err := fuzzy.NewSurface(sys.FLC1(),
		fuzzy.WithSurfaceGrid(gridSize),
		fuzzy.WithSurfaceErrorMap(surfaceErrorSafety),
	)
	if err != nil {
		return nil, fmt.Errorf("facs: compiling FLC1 surface: %w", err)
	}
	// Request and counter-state inputs are integral bandwidth units in
	// every admission query, so instead of a dense uniform subdivision
	// those two axes carry exactly one node per integer (plus membership
	// corners): every realistic query hits their nodes and reproduces
	// the exact engine with zero error on those axes, confining
	// interpolation to the genuinely continuous Cv axis — and shrinking
	// the table and its compile time by an order of magnitude. The error
	// map is aligned to those nodes, so it bounds only the Cv-axis error.
	surf2, err := fuzzy.NewSurface(sys.FLC2(),
		fuzzy.WithSurfaceGrid(gridSize, 2, 2),
		fuzzy.WithSurfaceNodes(VarRequest, integerNodes(sys.params.RequestMax)...),
		fuzzy.WithSurfaceNodes(VarCounter, integerNodes(sys.params.CapacityBU)...),
		fuzzy.WithSurfaceErrorMap(surfaceErrorSafety),
		fuzzy.WithSurfaceAlignedAxes(flc2AlignedAxes...),
	)
	if err != nil {
		return nil, fmt.Errorf("facs: compiling FLC2 surface: %w", err)
	}
	compileCount.Add(1)
	return newCompiledFromSurfaces(sys, surf1, surf2)
}

// flc2AlignedAxes are the admission surface's inputs that every query
// supplies as an integral number of bandwidth units.
var flc2AlignedAxes = []string{VarRequest, VarCounter}

// newCompiledFromSurfaces assembles a controller from already compiled
// (or cache-decoded) surfaces. The grade/threshold boundaries, the
// accept table and FLC1's cell ranges are re-derived from the system
// and the surfaces, which is cheap; only the surface sampling itself is
// worth persisting. Everything is built here, before the controller
// serves, so no decision pays for a lazy build.
func newCompiledFromSurfaces(sys *System, surf1, surf2 *fuzzy.Surface) (*CompiledController, error) {
	cells, err := fuzzy.NewCellRanges(surf1)
	if err != nil {
		return nil, fmt.Errorf("facs: FLC1 cell ranges: %w", err)
	}
	return &CompiledController{
		sys:        sys,
		surf1:      surf1,
		surf2:      surf2,
		boundaries: append(gradeBoundaries(sys.flc2.Output()), sys.acceptThreshold),
		table:      newAcceptTable(sys, surf2),
		cells:      cells,
	}, nil
}

// integerNodes lists 1, 2, ..., ceil(max)-1 (interior integers; the
// universe endpoints are always grid nodes already).
func integerNodes(max float64) []float64 {
	var out []float64
	for x := 1.0; x < max; x++ {
		out = append(out, x)
	}
	return out
}

// gradeBoundaries locates the points of the A/R universe at which the
// highest-membership output term — the decision grade — switches, by
// scanning the variable at fine resolution and bisecting each switch
// interval down to floating-point noise.
func gradeBoundaries(ar *fuzzy.Variable) []float64 {
	const scan = 4096
	min, max := ar.Universe()
	step := (max - min) / scan
	var out []float64
	prev := ar.HighestTermIndex(min)
	for i := 1; i <= scan; i++ {
		x := min + float64(i)*step
		cur := ar.HighestTermIndex(x)
		if cur == prev {
			continue
		}
		lo, hi := x-step, x
		for hi-lo > 1e-12 {
			mid := (lo + hi) / 2
			if ar.HighestTermIndex(mid) == prev {
				lo = mid
			} else {
				hi = mid
			}
		}
		out = append(out, hi)
		prev = cur
	}
	return out
}

var defaultCompiled struct {
	once sync.Once
	ctrl *CompiledController
	err  error
}

// DefaultCompiled returns a process-wide shared CompiledController for
// the default configuration, compiling it on first use. Surface
// compilation is a one-off cost (see the package documentation) that
// callers repeatedly needing the default compiled FACS (experiment
// replications, benchmarks, tests) should not pay twice, so they share
// this instance; it is safe for concurrent use.
func DefaultCompiled() (*CompiledController, error) {
	defaultCompiled.once.Do(func() {
		defaultCompiled.ctrl, defaultCompiled.err = NewCompiled(0)
	})
	return defaultCompiled.ctrl, defaultCompiled.err
}

// Name implements cac.Controller.
func (c *CompiledController) Name() string { return "facs-compiled" }

// System returns the exact system the surfaces were compiled from.
func (c *CompiledController) System() *System { return c.sys }

// FLC1Surface returns the compiled prediction surface.
func (c *CompiledController) FLC1Surface() *fuzzy.Surface { return c.surf1 }

// FLC2Surface returns the compiled admission surface.
func (c *CompiledController) FLC2Surface() *fuzzy.Surface { return c.surf2 }

// AcceptThreshold returns the crisp decision boundary.
func (c *CompiledController) AcceptThreshold() float64 { return c.sys.AcceptThreshold() }

// Stats reports how many decisions and evaluations were answered from
// the surfaces versus by the exact engines since construction.
func (c *CompiledController) Stats() (fast, exact int64) {
	return c.fast.Load(), c.exact.Load()
}

// CellSettled reports how many of the fast decisions Stats counts were
// settled by the cell check, before any interpolation.
func (c *CompiledController) CellSettled() int64 { return c.cell.Load() }

// Predict runs the compiled FLC1 surface, returning the correction
// value for an observation. The result carries the documented
// interpolation tolerance; use System().Predict for the exact value.
func (c *CompiledController) Predict(obs gps.Observation) (float64, error) {
	return c.surf1.EvaluateVec(obs.SpeedKmh, obs.AngleDeg, obs.DistanceKm)
}

// Evaluate runs the full two-stage inference on the compiled surfaces,
// mirroring System.Evaluate. If the interpolated A/R value lands
// within the propagated error bound of the accept threshold or of a
// grade boundary, the exact engines decide instead, so the returned
// Grade and Accepted always match the exact System.
func (c *CompiledController) Evaluate(obs gps.Observation, requestBU, usedBU int, handoff bool) (Evaluation, error) {
	cv, b1, err := c.surf1.EvaluateVecWithBound(obs.SpeedKmh, obs.AngleDeg, obs.DistanceKm)
	if err != nil {
		return Evaluation{}, err
	}
	ar, _, err := c.surf2.EvaluateVecWithBound(cv, float64(requestBU), float64(usedBU))
	if err != nil {
		return Evaluation{}, err
	}
	// The exact Cv may lie anywhere in [cv-b1, cv+b1], possibly in a
	// neighbouring cell of the admission surface, so bound the slope
	// and the interpolation error over every Cv-axis cell that
	// interval touches before propagating the upstream error.
	cvSpan := [2]float64{cv - b1, cv + b1}
	slope, b2, err := c.surf2.AxisRangeBounds(0, cvSpan[:], cv, float64(requestBU), float64(usedBU))
	if err != nil {
		return Evaluation{}, err
	}
	guard := slope*b1 + b2
	if handoff {
		ar += c.sys.handoffBias
		if ar > 1 {
			ar = 1
		}
	}
	for _, b := range c.boundaries {
		if math.Abs(ar-b) <= guard {
			c.exact.Add(1)
			return c.sys.Evaluate(obs, requestBU, usedBU, handoff)
		}
	}
	c.fast.Add(1)
	return Evaluation{
		Cv:       cv,
		AR:       ar,
		Grade:    c.sys.grade(ar),
		Accepted: ar >= c.sys.acceptThreshold,
	}, nil
}

// DecideBatch implements cac.BatchController with the same semantics as
// per-request Decide calls against unchanged station state.
func (c *CompiledController) DecideBatch(reqs []cac.Request) ([]cac.Decision, error) {
	out := make([]cac.Decision, len(reqs))
	if err := c.DecideBatchInto(reqs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecideBatchInto implements cac.BatchIntoController: DecideBatch
// semantics into a caller-provided buffer. Each request that its
// station can carry goes through the cell → point → exact steps of
// CompiledController: the cell check (three guided locates and one
// table read, then an interval compare in the accept table) settles
// most of them; a miss interpolates FLC1 for the point check, and only
// a request whose point range is not inside one certain interval runs
// the exact engines (exact FLC1, the table at the exact Cv, exact FLC2
// on a miss). The station occupancy is read once per run of
// requests aimed at the same station. Nothing here allocates.
//
//facs:hotpath
func (c *CompiledController) DecideBatchInto(reqs []cac.Request, out []cac.Decision) error {
	n, err := c.decideBatch(reqs, out)
	c.cell.Add(n.cell)
	c.fast.Add(n.cell + n.point)
	c.exact.Add(n.exact)
	return err
}

// decideCounts tallies which step settled each decision of a batch.
type decideCounts struct {
	cell, point, exact int64
}

// decideBatch is DecideBatchInto with the step counts returned rather
// than published per request.
func (c *CompiledController) decideBatch(reqs []cac.Request, out []cac.Decision) (n decideCounts, err error) {
	var station *cell.BaseStation
	used, free := 0, 0
	for i := range reqs {
		req := &reqs[i]
		if err := req.Validate(); err != nil {
			return n, err
		}
		// Decide must not mutate stations, so occupancy is stable for
		// the whole batch and one read serves every consecutive request
		// on the same station.
		if req.Station != station {
			station = req.Station
			used = station.Used()
			free = station.Free()
		}
		if req.Call.BU > free {
			out[i] = cac.Reject
			continue
		}
		obs := &req.Obs
		lo, hi, err := c.cells.Range(obs.SpeedKmh, obs.AngleDeg, obs.DistanceKm)
		if err != nil {
			return n, err
		}
		accepted, ok := c.table.decide(req.Handoff, req.Call.BU, used, lo, hi)
		if ok {
			n.cell++
		} else {
			cv, b1, err := c.surf1.EvaluateVecWithBound(obs.SpeedKmh, obs.AngleDeg, obs.DistanceKm)
			if err != nil {
				return n, err
			}
			accepted, ok = c.table.decide(req.Handoff, req.Call.BU, used, cv-b1, cv+b1)
			if ok {
				n.point++
			} else {
				n.exact++
				// The table certifies every Cv inside its intervals, so
				// it settles the exact Cv wherever that point lies in
				// one; only the rest run exact FLC2.
				if cv, err = c.sys.Predict(req.Obs); err != nil {
					return n, err
				}
				if accepted, ok = c.table.decide(req.Handoff, req.Call.BU, used, cv, cv); !ok {
					ev, err := c.sys.evaluateCv(cv, req.Call.BU, used, req.Handoff)
					if err != nil {
						return n, err
					}
					accepted = ev.Accepted
				}
			}
		}
		if accepted {
			out[i] = cac.Accept
		} else {
			out[i] = cac.Reject
		}
	}
	return n, nil
}

// Decide implements cac.Controller with the same semantics as
// System.Decide: a one-request DecideBatchInto.
func (c *CompiledController) Decide(req cac.Request) (cac.Decision, error) {
	out := [1]cac.Decision{cac.Reject}
	if err := c.DecideBatchInto([]cac.Request{req}, out[:]); err != nil {
		return cac.Reject, err
	}
	return out[0], nil
}
