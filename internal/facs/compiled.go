package facs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/fuzzy"
	"facs/internal/gps"
)

// DefaultSurfaceGridSize is the per-axis grid resolution used by
// NewCompiled when none is given: the FLC1 cells that decisions enclose,
// and the node counts of the surfaces FLC1Surface and FLC2Surface
// compile. See fuzzy.DefaultSurfaceGridSize for the rationale.
const DefaultSurfaceGridSize = fuzzy.DefaultSurfaceGridSize

// surfaceErrorSafety scales the sampled interpolation error bounds
// (fuzzy.WithSurfaceErrorMap) of the two surfaces FLC1Surface and
// FLC2Surface compile on request. A single centre probe can under-read
// the peak error of a cell crossed asymmetrically by a t-norm crease,
// so the probed bound is doubled. The bounds are estimates, not proofs;
// no decision reads them.
const surfaceErrorSafety = 2

// CompiledController is the fast path of the FACS. Both stages are
// enclosed (fuzzy.Enclosure) on first touch: FLC1 (speed x angle x
// distance -> Cv) grid cell by grid cell, and FLC2 (Cv x R x Cs -> A/R)
// one accept-table row per (handoff, R, Cs) at a time. It answers
// accept/reject only; the crisp values and the grade come from the
// exact System (Evaluate).
//
// An admission decision (Decide, DecideBatchInto) is compare-only. The
// accept table's row holds the Cv intervals on which an enclosure of
// exact FLC2 proves one verdict, and answers whether a Cv range has
// one. The range asked first is a certified enclosure of exact FLC1
// over the query's FLC1 grid cell: one table read once the cell and the
// row are filled. Where that range straddles a verdict, the query's 2³
// sub-cell is enclosed and asked, then its 4³ sub-cell. Only a request
// none of them settles runs exact FLC1 and asks the table about the
// exact Cv itself; only where no certain interval holds that does exact
// FLC2 run. Every range and every interval is a proven bound, so no
// step can flip a decision.
//
// The cell table, the sub-cell store and the accept table are a memo
// of pure functions: an enclosure depends on its cell alone, and a row
// on its index alone, so shards that race to fill one store the same
// bits. All three are allocated at construction, and filling them takes
// no lock and allocates nothing. A CompiledController is safe for
// concurrent use.
type CompiledController struct {
	sys   *System
	flc1  *flc1Cells
	table acceptTable
	surf1 func() *fuzzy.Surface
	surf2 func() *fuzzy.Surface

	fast  atomic.Int64
	exact atomic.Int64
	cell  atomic.Int64 // the fast decisions a whole cell settled
}

var (
	_ cac.Controller      = (*CompiledController)(nil)
	_ cac.BatchController = (*CompiledController)(nil)
	_ cac.CellLocal       = (*CompiledController)(nil)
)

// CellLocal implements cac.CellLocal: like the exact System, a decision
// reads only the request and its station's occupancy, against tables
// that are immutable or a memo of a pure function, and the controller
// is safe for concurrent use — one instance may be shared across the
// shards of a sharded engine.
func (c *CompiledController) CellLocal() {}

// NewCompiled constructs the exact System for the given options and
// compiles it (CompileSystem) with gridSize uniform nodes per axis
// (gridSize <= 0 selects DefaultSurfaceGridSize).
func NewCompiled(gridSize int, opts ...Option) (*CompiledController, error) {
	sys, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return CompileSystem(sys, gridSize)
}

// CompileSystem compiles an already constructed System into a
// CompiledController without rebuilding it: FLC1's grid with an empty
// cell table and sub-cell store, and an accept table with no row
// filled. It compiles no surface. It refuses a System whose engines
// cannot be enclosed (fuzzy.NewEnclosure), such as one with a
// defuzzifier other than Centroid.
func CompileSystem(sys *System, gridSize int) (*CompiledController, error) {
	if sys == nil {
		return nil, fmt.Errorf("facs: compile needs a system")
	}
	if gridSize <= 0 {
		gridSize = DefaultSurfaceGridSize
	}
	flc1, err := newFLC1Cells(sys.FLC1(), gridSize)
	if err != nil {
		return nil, fmt.Errorf("facs: FLC1 cells: %w", err)
	}
	c := &CompiledController{
		sys:  sys,
		flc1: flc1,
		surf1: sync.OnceValue(func() *fuzzy.Surface {
			return fuzzy.MustSurface(sys.FLC1(),
				fuzzy.WithSurfaceGrid(gridSize),
				fuzzy.WithSurfaceErrorMap(surfaceErrorSafety),
			)
		}),
		// Request and counter-state inputs are integral bandwidth units
		// in every admission query, so instead of a dense uniform
		// subdivision those two axes carry exactly one node per integer
		// (plus membership corners): a query on their nodes reproduces
		// the exact engine with zero error on those axes, confining
		// interpolation to the continuous Cv axis. The error map is
		// aligned to those nodes, so it bounds only the Cv-axis error.
		surf2: sync.OnceValue(func() *fuzzy.Surface {
			return fuzzy.MustSurface(sys.FLC2(),
				fuzzy.WithSurfaceGrid(gridSize, 2, 2),
				fuzzy.WithSurfaceNodes(VarRequest, integerNodes(sys.params.RequestMax)...),
				fuzzy.WithSurfaceNodes(VarCounter, integerNodes(sys.params.CapacityBU)...),
				fuzzy.WithSurfaceErrorMap(surfaceErrorSafety),
				fuzzy.WithSurfaceAlignedAxes(flc2AlignedAxes...),
			)
		}),
	}
	if err := c.table.init(sys); err != nil {
		return nil, fmt.Errorf("facs: accept table: %w", err)
	}
	return c, nil
}

// flc2AlignedAxes are the admission surface's inputs that every query
// supplies as an integral number of bandwidth units.
var flc2AlignedAxes = []string{VarRequest, VarCounter}

// integerNodes lists 1, 2, ..., ceil(max)-1 (interior integers; the
// universe endpoints are always grid nodes already).
func integerNodes(max float64) []float64 {
	var out []float64
	for x := 1.0; x < max; x++ {
		out = append(out, x)
	}
	return out
}

var defaultCompiled struct {
	once sync.Once
	ctrl *CompiledController
	err  error
}

// DefaultCompiled returns a process-wide shared CompiledController for
// the default configuration, built on first use. Callers repeatedly
// needing the default compiled FACS (experiment replications,
// benchmarks, tests) share this instance, and with it the FLC1 cells
// already enclosed; it is safe for concurrent use.
func DefaultCompiled() (*CompiledController, error) {
	defaultCompiled.once.Do(func() {
		defaultCompiled.ctrl, defaultCompiled.err = NewCompiled(0)
	})
	return defaultCompiled.ctrl, defaultCompiled.err
}

// Name implements cac.Controller.
func (c *CompiledController) Name() string { return "facs-compiled" }

// System returns the exact system the controller was compiled from.
func (c *CompiledController) System() *System { return c.sys }

// FLC1Surface returns FLC1 compiled into an interpolation surface with
// its probed error map, on the same grid as the cells decisions
// enclose. No decision reads it: it is compiled on the first call, and
// panics if the engine fails at a grid node, which the paper's FLC1
// (a complete rule base over covering partitions) never does.
func (c *CompiledController) FLC1Surface() *fuzzy.Surface { return c.surf1() }

// FLC2Surface returns FLC2 compiled into an interpolation surface with
// its probed, node-aligned error map: a dense Cv axis on the FLC1 grid's
// node count and one node per integral R and Cs. No decision reads it:
// it is compiled on the first call, and panics if the engine fails at
// a grid node, which the paper's FLC2 never does.
func (c *CompiledController) FLC2Surface() *fuzzy.Surface { return c.surf2() }

// AcceptThreshold returns the crisp decision boundary.
func (c *CompiledController) AcceptThreshold() float64 { return c.sys.AcceptThreshold() }

// Stats reports how many decisions the FLC1 enclosures settled (fast)
// and how many decisions and Evaluate calls ran the exact engines
// (exact) since construction.
func (c *CompiledController) Stats() (fast, exact int64) {
	return c.fast.Load(), c.exact.Load()
}

// CellSettled reports how many of the fast decisions Stats counts were
// settled by their whole FLC1 cell; the rest were settled by a
// sub-cell.
func (c *CompiledController) CellSettled() int64 { return c.cell.Load() }

// Enclosed reports how many FLC1 cells and sub-cells decisions have
// enclosed since construction. Only the store that publishes an
// enclosure counts it, so a cell that racing shards enclose together
// counts once, and at a fixed request stream both counts repeat
// exactly.
func (c *CompiledController) Enclosed() (cells, subCells int64) {
	return c.flc1.cellsEnclosed.Load(), c.flc1.subsEnclosed.Load()
}

// RowsFilled reports how many accept-table rows decisions have filled
// since construction, and how many FLC2 enclosures filling them took.
// As with Enclosed, only the fill that publishes a row counts, so both
// counts repeat exactly at a fixed request stream.
func (c *CompiledController) RowsFilled() (rows, enclosures int64) {
	return c.table.rowsFilled.Load(), c.table.enclosures.Load()
}

// Evaluate is System.Evaluate, counted as one exact evaluation in
// Stats: the compiled controller only decides, so the crisp values and
// the grade come from the exact engines.
func (c *CompiledController) Evaluate(obs gps.Observation, requestBU, usedBU int, handoff bool) (Evaluation, error) {
	c.exact.Add(1)
	return c.sys.Evaluate(obs, requestBU, usedBU, handoff)
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
// station can carry goes through the cell → sub-cell → exact steps of
// CompiledController: its FLC1 cell's enclosure (three guided locates
// and one table read, plus one enclosure the first time the cell is
// touched) and an interval compare in the accept table (plus one row
// fill the first time the row is read) settle most of them; a
// straddling cell asks its 2³ and then its 4³ sub-cell, and only
// a request that neither settles runs the exact engines (exact FLC1,
// the table at the exact Cv, exact FLC2 on a miss). The station
// occupancy is read once per run of requests aimed at the same station.
// Nothing here allocates.
//
//facs:hotpath
func (c *CompiledController) DecideBatchInto(reqs []cac.Request, out []cac.Decision) error {
	n, err := c.decideBatch(reqs, out)
	c.cell.Add(n.cell)
	c.fast.Add(n.cell + n.sub)
	c.exact.Add(n.exact)
	return err
}

// decideCounts tallies which step settled each decision of a batch.
type decideCounts struct {
	cell, sub, exact int64
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
		q := flc1Query{vals: [3]float64{req.Obs.SpeedKmh, req.Obs.AngleDeg, req.Obs.DistanceKm}}
		c.flc1.locate(&q)
		lo, hi := c.flc1.cellRange(&q)
		accepted, ok := c.table.decide(req.Handoff, req.Call.BU, used, lo, hi)
		if ok {
			n.cell++
		}
		for level := 1; !ok && level <= subCellLevels; level++ {
			if lo, hi, ok = c.flc1.subCellRange(&q, level); !ok {
				break // the sub-cell store is full
			}
			accepted, ok = c.table.decide(req.Handoff, req.Call.BU, used, lo, hi)
			if ok {
				n.sub++
			}
		}
		if !ok {
			n.exact++
			// The table certifies every Cv inside its intervals, so it
			// settles the exact Cv wherever that point lies in one; only
			// the rest run exact FLC2.
			cv, err := c.sys.Predict(req.Obs)
			if err != nil {
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
