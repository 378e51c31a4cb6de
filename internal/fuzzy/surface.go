package fuzzy

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// maxSurfaceDims bounds the input dimensionality of a compiled surface.
// The corner loop of the multilinear interpolator enumerates 2^d grid
// points, so the bound keeps both the table size and the per-call cost
// honest; the paper's controllers have three inputs each.
const maxSurfaceDims = 8

// DefaultSurfaceGridSize is the per-axis uniform sample count used when
// a grid size is not specified. The uniform nodes are augmented with
// every membership-function corner of the axis variable (see
// NewSurface), which restores quadratic interpolation convergence
// across the kinks of piecewise-linear controllers; at 65 uniform nodes
// per axis the paper's surfaces stay within ~1e-3 of the exact engines
// (the golden-equivalence tests in internal/facs pin the realised
// bounds) while a three-input table stays under 3 MB.
const DefaultSurfaceGridSize = 65

// guideBucketsPerCell is how many uniform guide buckets an axis keeps
// per grid cell. Two per cell leave at most a node or two between a
// bucket's start node and any query in it.
const guideBucketsPerCell = 2

// SurfaceAxis is one input dimension of a compiled surface: the
// variable name plus the sorted, strictly increasing grid nodes along
// its universe, and a guide table that Locate starts from.
type SurfaceAxis struct {
	Name  string
	nodes []float64
	// guide[b] is the last node whose bucket is below b (0 if none),
	// where a coordinate's bucket is int((x-nodes[0])*scale).
	guide []int32
	scale float64
}

// newSurfaceAxis builds an axis over finite, strictly increasing nodes
// (at least two) whose span is finite, with its guide table. NewVariable
// refuses a universe whose span overflows.
//
// The bucket of a coordinate never decreases as the coordinate grows,
// because a float subtraction and a multiplication by a positive
// constant are monotone. So every node whose bucket is below a query's
// bucket lies below the query, and guide[b] is never past the cell of
// any query in bucket b: Locate reaches that cell by stepping forward.
func newSurfaceAxis(name string, nodes []float64) SurfaceAxis {
	cells := len(nodes) - 1
	nb := guideBucketsPerCell * cells
	a := SurfaceAxis{
		Name:  name,
		nodes: nodes,
		guide: make([]int32, nb+1),
		scale: float64(nb) / (nodes[cells] - nodes[0]),
	}
	// A query below the last node has a bucket of at most nb, and its
	// cell is at most cells-1.
	j := 0
	for b := range a.guide {
		for j+1 < cells && a.bucket(nodes[j+1]) < b {
			j++
		}
		a.guide[b] = int32(j)
	}
	return a
}

// bucket is the guide bucket of a coordinate inside the axis. Locate
// spells the same expression out, which keeps it within the inlining
// budget; the guided-locate test compares the two paths.
func (a *SurfaceAxis) bucket(x float64) int { return int((x - a.nodes[0]) * a.scale) }

// Min returns the first grid node (the universe lower bound).
func (a SurfaceAxis) Min() float64 { return a.nodes[0] }

// Max returns the last grid node (the universe upper bound).
func (a SurfaceAxis) Max() float64 { return a.nodes[len(a.nodes)-1] }

// N returns the node count.
func (a SurfaceAxis) N() int { return len(a.nodes) }

// Nodes returns a copy of the grid nodes.
func (a SurfaceAxis) Nodes() []float64 { return append([]float64(nil), a.nodes...) }

// Locate maps x to its lower grid node index and the fractional
// position inside the cell, clamping to the universe exactly like
// Variable.Clamp (NaN clamps low). The guide table gives a node at or
// below the cell, and a short forward step finds the cell:
// nodes[j] <= x < nodes[j+1]. Then 0 <= x-nodes[j] <= nodes[j+1]-nodes[j]
// holds after rounding too, since rounding is monotone, so f lies in
// [0, 1] without a clamp.
func (a *SurfaceAxis) Locate(x float64) (int, float64) {
	nodes := a.nodes
	if !(x > nodes[0]) { // also catches NaN
		return 0, 0
	}
	last := len(nodes) - 1
	if x >= nodes[last] {
		return last - 1, 1
	}
	j := int(a.guide[int((x-nodes[0])*a.scale)]) // a.bucket(x), spelled out to keep Locate inlinable
	for nodes[j+1] <= x {
		j++
	}
	return j, (x - nodes[j]) / (nodes[j+1] - nodes[j])
}

// Surface is a compiled lookup-table approximation of an Engine: the
// engine's defuzzified output sampled over a dense grid of its input
// universes at construction time, answered at query time by
// multilinear (for three inputs, trilinear) interpolation.
//
// Grid nodes along each axis are the union of a uniform subdivision and
// the corner points (support and kernel endpoints) of every membership
// function on that axis, so the kinks of piecewise-linear controllers
// fall on cell boundaries instead of inside cells. At the grid nodes a
// Surface reproduces the engine exactly; between nodes it interpolates,
// and the golden-equivalence test suite in internal/facs pins the
// realised error bounds for the paper's controllers.
//
// A Surface is immutable after construction and safe for concurrent
// use. Unlike Engine.EvaluateVec, Surface evaluation never fails for
// finite inputs (out-of-universe inputs are clamped exactly as the
// engine clamps them).
type Surface struct {
	axes       []SurfaceAxis
	strides    []int
	values     []float64
	errStrides []int
	errs       []float64 // local error bounds; nil without error map
	aligned    uint32    // error-map axes indexed by node, one bit per axis
	name       string
}

// surfaceCompiler configures NewSurface.
type surfaceCompiler struct {
	grid    []int
	extra   map[string][]float64
	workers int
	errMap  bool
	safety  float64
	aligned []string
}

// SurfaceOption configures surface compilation.
type SurfaceOption func(*surfaceCompiler)

// WithSurfaceGrid sets the per-axis uniform node counts that seed the
// grid before membership corners are merged in. Provide either one
// count per engine input or a single count applied to every axis; each
// count must be at least 2. The default is DefaultSurfaceGridSize on
// every axis.
func WithSurfaceGrid(sizes ...int) SurfaceOption {
	return func(c *surfaceCompiler) { c.grid = append([]int(nil), sizes...) }
}

// WithSurfaceNodes merges explicit grid nodes into the named axis, on
// top of the uniform subdivision and the membership corners. Queries
// that hit a grid node exactly reproduce the engine with zero error,
// so callers whose inputs are known to be discrete (e.g. integral
// bandwidth units) can pin those values and confine interpolation to
// the genuinely continuous axes. Nodes outside the axis universe are
// ignored.
func WithSurfaceNodes(axis string, nodes ...float64) SurfaceOption {
	return func(c *surfaceCompiler) {
		if c.extra == nil {
			c.extra = make(map[string][]float64)
		}
		c.extra[axis] = append(c.extra[axis], nodes...)
	}
}

// WithSurfaceWorkers sets the number of goroutines used to sample the
// engine during compilation (default runtime.NumCPU()). The compiled
// table is identical for every worker count: workers fill disjoint
// slabs of the grid.
func WithSurfaceWorkers(n int) SurfaceOption {
	return func(c *surfaceCompiler) { c.workers = n }
}

// WithSurfaceErrorMap additionally samples the engine at the centre of
// every grid cell and stores |interpolated - exact| * safety as a local
// interpolation error bound, retrievable through EvaluateVecWithBound.
// The cell centre is where multilinear interpolation error peaks for
// smooth integrands and for the diagonal creases the min t-norm
// introduces; safety (values below 1 are raised to 1) covers
// asymmetric creases the single sample can under-read, and the map is
// then dilated so every cell also carries the worst bound of its
// neighbours — a query near a cell boundary (or an upstream error that
// pushes the true input into the next cell) stays covered. The error
// map adds one float per cell; for the paper's FLC1 at the default
// grid it makes compilation about 2.4 times as costly as without it.
// WithSurfaceAlignedAxes changes the layout along axes whose queries
// sit on grid nodes.
func WithSurfaceErrorMap(safety float64) SurfaceOption {
	return func(c *surfaceCompiler) {
		c.errMap = true
		if safety < 1 {
			safety = 1
		}
		c.safety = safety
	}
}

// WithSurfaceAlignedAxes declares axes whose queries always land on
// grid nodes (e.g. inputs pinned with WithSurfaceNodes that callers
// only ever query at those values). It changes the error map only:
// along an aligned axis the map holds one bound per node instead of
// one per cell, probed at the node rather than at the cell centre, and
// it is not dilated along that axis. Interpolation along an aligned
// axis is exact at its nodes, so the map then bounds only the error
// that the remaining axes contribute — a much tighter guard than the
// per-cell map, which also covers the error between the nodes of the
// aligned axes.
//
// A query whose aligned coordinate lies off the axis nodes after
// clamping has no bound: EvaluateVecWithBound and AxisRangeBounds
// report +Inf for it, so guarded callers fall back to the exact engine.
func WithSurfaceAlignedAxes(names ...string) SurfaceOption {
	return func(c *surfaceCompiler) { c.aligned = append(c.aligned, names...) }
}

// axisNodes builds the grid nodes for one input variable: a uniform
// n-point subdivision of the universe merged with every term's support
// and kernel endpoints plus any caller-pinned nodes, deduplicated.
func axisNodes(v *Variable, n int, extra []float64) []float64 {
	min, max := v.Universe()
	nodes := make([]float64, 0, n+4*v.NumTerms()+len(extra))
	step := (max - min) / float64(n-1)
	for i := 0; i < n; i++ {
		nodes = append(nodes, min+float64(i)*step)
	}
	nodes[n-1] = max // guard against accumulated rounding
	for _, t := range v.Terms() {
		sLo, sHi := t.MF.Support()
		kLo, kHi := t.MF.Kernel()
		for _, x := range [4]float64{sLo, sHi, kLo, kHi} {
			if x > min && x < max {
				nodes = append(nodes, x)
			}
		}
	}
	for _, x := range extra {
		if x > min && x < max {
			nodes = append(nodes, x)
		}
	}
	sort.Float64s(nodes)
	// Deduplicate nodes closer than a universe-relative epsilon; keep
	// the earlier node so universe endpoints always survive.
	eps := (max - min) * 1e-9
	out := nodes[:1]
	for _, x := range nodes[1:] {
		if x-out[len(out)-1] > eps {
			out = append(out, x)
		}
	}
	return out
}

// NewSurface compiles a lookup-table surface from an engine by
// evaluating it at every node of a dense input grid. Compilation cost
// is the product of the per-axis node counts times at most one exact
// inference, less where consecutive nodes share axes and strength
// vectors (see the package documentation); it is sharded across
// workers. The engine is only read, never retained.
func NewSurface(e *Engine, opts ...SurfaceOption) (*Surface, error) {
	c, axes, err := surfaceGrid(e, opts)
	if err != nil {
		return nil, err
	}
	var aligned uint32
	for _, name := range c.aligned {
		i := axisIndex(axes, name)
		if i < 0 {
			return nil, fmt.Errorf("fuzzy: unknown aligned axis %q", name)
		}
		aligned |= 1 << i
	}
	s := &Surface{
		axes:    axes,
		strides: make([]int, len(axes)),
		name:    e.Output().Name(),
	}
	// Row-major layout: the last axis varies fastest.
	stride := 1
	for i := len(s.axes) - 1; i >= 0; i-- {
		s.strides[i] = stride
		stride *= s.axes[i].N()
	}
	s.values = make([]float64, stride)
	if err := s.compile(e, c.workers); err != nil {
		return nil, err
	}
	if c.errMap {
		if err := s.compileErrorMap(e, c.workers, c.safety, aligned); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// GridAxes returns the axes NewSurface would build for the engine and
// options, without sampling the engine: only the grid sizes and pinned
// nodes shape them. A caller that evaluates the engine cell by cell
// (see Enclosure) locates its queries on these axes.
func GridAxes(e *Engine, opts ...SurfaceOption) ([]SurfaceAxis, error) {
	_, axes, err := surfaceGrid(e, opts)
	return axes, err
}

// surfaceGrid applies the options and builds the grid axes of e.
func surfaceGrid(e *Engine, opts []SurfaceOption) (surfaceCompiler, []SurfaceAxis, error) {
	c := surfaceCompiler{workers: runtime.NumCPU()}
	if e == nil {
		return c, nil, fmt.Errorf("fuzzy: surface needs an engine")
	}
	inputs := e.inputs
	if len(inputs) > maxSurfaceDims {
		return c, nil, fmt.Errorf("fuzzy: surface supports at most %d inputs, engine has %d", maxSurfaceDims, len(inputs))
	}
	for _, opt := range opts {
		opt(&c)
	}
	switch len(c.grid) {
	case 0:
		c.grid = make([]int, len(inputs))
		for i := range c.grid {
			c.grid[i] = DefaultSurfaceGridSize
		}
	case 1:
		n := c.grid[0]
		c.grid = make([]int, len(inputs))
		for i := range c.grid {
			c.grid[i] = n
		}
	case len(inputs):
		// one count per axis
	default:
		return c, nil, fmt.Errorf("fuzzy: got %d grid sizes for %d inputs", len(c.grid), len(inputs))
	}
	if c.workers < 1 {
		c.workers = 1
	}
	axes := make([]SurfaceAxis, len(inputs))
	for i, v := range inputs {
		if c.grid[i] < 2 {
			return c, nil, fmt.Errorf("fuzzy: grid size for axis %q must be >= 2, got %d", v.Name(), c.grid[i])
		}
		axes[i] = newSurfaceAxis(v.Name(), axisNodes(v, c.grid[i], c.extra[v.Name()]))
	}
	for name := range c.extra {
		if axisIndex(axes, name) < 0 {
			return c, nil, fmt.Errorf("fuzzy: surface nodes pinned for unknown axis %q", name)
		}
	}
	return c, axes, nil
}

// axisIndex is the position of the named axis, or -1.
func axisIndex(axes []SurfaceAxis, name string) int {
	for i := range axes {
		if axes[i].Name == name {
			return i
		}
	}
	return -1
}

// MustSurface is like NewSurface but panics on error. It is intended
// for statically known controllers such as the paper's FLC1 and FLC2.
func MustSurface(e *Engine, opts ...SurfaceOption) *Surface {
	s, err := NewSurface(e, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// compile fills the value table by sampling the engine, sharding
// complete slabs of the first axis across workers. Every worker writes
// disjoint regions, so the result is independent of scheduling. Each
// worker evaluates through its own gridEval, which returns the bits of
// Engine.EvaluateVec.
func (s *Surface) compile(e *Engine, workers int) error {
	slab := s.strides[0]
	return runSlabs(s.axes[0].N(), workers, func() func(i int) error {
		g := newGridEval(e)
		vals := make([]float64, len(s.axes))
		idx := make([]int, len(s.axes))
		return func(i int) error {
			vals[0] = s.axes[0].nodes[i]
			for k := 1; k < len(idx); k++ {
				idx[k] = 0
				vals[k] = s.axes[k].nodes[0]
			}
			base := i * slab
			for off := 0; off < slab; off++ {
				y, err := g.eval(vals)
				if err != nil {
					return fmt.Errorf("fuzzy: compiling surface at %v: %w", append([]float64(nil), vals...), err)
				}
				s.values[base+off] = y
				// Advance the odometer over axes 1..d-1.
				for k := len(idx) - 1; k >= 1; k-- {
					idx[k]++
					if idx[k] < s.axes[k].N() {
						vals[k] = s.axes[k].nodes[idx[k]]
						break
					}
					idx[k] = 0
					vals[k] = s.axes[k].nodes[0]
				}
			}
			return nil
		}
	})
}

// runSlabs runs slabs 0..n-1 on min(workers, n) goroutines that claim
// them in increasing order from one counter. newSlab is called once
// per worker, on the caller, and returns that worker's slab function
// with its own scratch. A slab above the lowest failing one so far is
// skipped, and every slab below it runs, so the error returned is
// always that of the lowest failing slab, whatever the scheduling.
func runSlabs(n, workers int, newSlab func() func(i int) error) error {
	workers = min(workers, n)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     atomic.Int64
		errSlab  atomic.Int64 // lowest failing slab so far, n when none
		firstErr error
	)
	errSlab.Store(int64(n))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		slab := newSlab()
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= errSlab.Load() {
					return // claims only grow, so every later one is skipped too
				}
				if err := slab(int(i)); err != nil {
					mu.Lock()
					if i < errSlab.Load() {
						firstErr = err
						errSlab.Store(i)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// errShape returns the error-map extent along axis i: its node count
// when the axis is aligned, its cell count otherwise.
func (s *Surface) errShape(i int) int {
	if s.aligned&(1<<i) != 0 {
		return s.axes[i].N()
	}
	return s.axes[i].N() - 1
}

// initErrorMap lays out the error table for the given aligned axes,
// row-major like the value table, and returns its length.
func (s *Surface) initErrorMap(aligned uint32) int {
	d := len(s.axes)
	s.aligned = aligned
	s.errStrides = make([]int, d)
	stride := 1
	for i := d - 1; i >= 0; i-- {
		s.errStrides[i] = stride
		stride *= s.errShape(i)
	}
	return stride
}

// compileErrorMap fills the error table by probing the engine at every
// cell centre — at the node itself along aligned axes. Workers shard
// slabs of the first axis exactly like compile, so the map is
// scheduling-independent too. Each probe's interpolated value comes
// from the cell and fraction Locate gives its coordinates, found once
// per axis coordinate rather than once per probe.
func (s *Surface) compileErrorMap(e *Engine, workers int, safety float64, aligned uint32) error {
	d := len(s.axes)
	s.errs = make([]float64, s.initErrorMap(aligned))
	// probes[k][i] is the probe coordinate at error index i of axis k,
	// offs[k][i] its cell's offset in the value table and fracs[k][i]
	// its fraction across that cell.
	probes := make([][]float64, d)
	offs := make([][]int, d)
	fracs := make([][]float64, d)
	for k := range s.axes {
		n, nodes := s.errShape(k), s.axes[k].nodes
		probes[k], offs[k], fracs[k] = make([]float64, n), make([]int, n), make([]float64, n)
		for i := range n {
			x := nodes[i]
			if aligned&(1<<k) == 0 {
				x = (nodes[i] + nodes[i+1]) / 2
			}
			j, f := s.axes[k].Locate(x)
			probes[k][i], offs[k][i], fracs[k][i] = x, j*s.strides[k], f
		}
	}
	slab := s.errStrides[0]
	err := runSlabs(s.errShape(0), workers, func() func(i int) error {
		g := newGridEval(e)
		idx := make([]int, d)
		probe := make([]float64, d)
		return func(i int) error {
			idx[0] = i
			for k := 1; k < d; k++ {
				idx[k] = 0
			}
			for off := 0; off < slab; off++ {
				var frac [maxSurfaceDims]float64
				base := 0
				for k := 0; k < d; k++ {
					probe[k] = probes[k][idx[k]]
					base += offs[k][idx[k]]
					frac[k] = fracs[k][idx[k]]
				}
				exact, err := g.eval(probe)
				if err != nil {
					return fmt.Errorf("fuzzy: probing surface error at %v: %w", append([]float64(nil), probe...), err)
				}
				diff := exact - s.interpolate(base, &frac)
				if diff < 0 {
					diff = -diff
				}
				s.errs[i*slab+off] = diff * safety
				for k := d - 1; k >= 1; k-- {
					idx[k]++
					if idx[k] < s.errShape(k) {
						break
					}
					idx[k] = 0
				}
			}
			return nil
		}
	})
	if err != nil {
		return err
	}
	s.dilateErrorMap()
	return nil
}

// dilateErrorMap replaces every cell's bound with the maximum over its
// 3^k cell neighbourhood along the k unaligned axes, via separable
// one-dimensional max passes. Probing only cell centres can under-read
// a crease that clips a cell corner; the crease then necessarily
// crosses a neighbouring cell whose centre probe reads it, so widening
// each bound to the neighbourhood maximum restores coverage near cell
// boundaries. Aligned axes are not dilated: their queries sit on the
// very node that was probed.
func (s *Surface) dilateErrorMap() {
	tmp := make([]float64, len(s.errs))
	for axis := range s.axes {
		if s.aligned&(1<<axis) != 0 {
			continue
		}
		stride := s.errStrides[axis]
		n := s.errShape(axis)
		copy(tmp, s.errs)
		for i := range s.errs {
			j := (i / stride) % n
			best := tmp[i]
			if j > 0 && tmp[i-stride] > best {
				best = tmp[i-stride]
			}
			if j+1 < n && tmp[i+stride] > best {
				best = tmp[i+stride]
			}
			s.errs[i] = best
		}
	}
}

// errIndex maps the located cell (j, f) of axis i to its error-map
// coordinate. Along an aligned axis that is the node the query sits
// on, and ok is false when the query lies strictly between two nodes.
func (s *Surface) errIndex(i, j int, f float64) (k int, ok bool) {
	if s.aligned&(1<<i) == 0 {
		return j, true
	}
	switch f {
	case 0:
		return j, true
	case 1:
		return j + 1, true
	}
	return 0, false
}

// HasErrorMap reports whether the surface carries local error bounds.
func (s *Surface) HasErrorMap() bool { return s.errs != nil }

// AlignedAxes returns the names of the error map's aligned axes
// (WithSurfaceAlignedAxes) in input order; nil when there are none.
func (s *Surface) AlignedAxes() []string {
	var out []string
	for i, ax := range s.axes {
		if s.aligned&(1<<i) != 0 {
			out = append(out, ax.Name)
		}
	}
	return out
}

// Axes returns the grid axes in input declaration order.
func (s *Surface) Axes() []SurfaceAxis {
	out := make([]SurfaceAxis, len(s.axes))
	for i, ax := range s.axes {
		ax.nodes = ax.Nodes() // the guide is read-only and shared
		out[i] = ax
	}
	return out
}

// NumNodes returns the total number of grid nodes in the table.
func (s *Surface) NumNodes() int { return len(s.values) }

// OutputName returns the name of the engine output the surface encodes.
func (s *Surface) OutputName() string { return s.name }

// EvaluateVec answers one query by multilinear interpolation, with
// crisp inputs given in input declaration order. It is the hot path:
// no allocation, no failure for finite inputs, cost O(d log n + 2^d).
func (s *Surface) EvaluateVec(vals ...float64) (float64, error) {
	if len(vals) != len(s.axes) {
		return 0, fmt.Errorf("fuzzy: got %d input values, want %d", len(vals), len(s.axes))
	}
	var frac [maxSurfaceDims]float64
	base := 0
	for i := range s.axes {
		j, f := s.axes[i].Locate(vals[i])
		frac[i] = f
		base += j * s.strides[i]
	}
	return s.interpolate(base, &frac), nil
}

// interpolate blends the 2^d corner values of the cell whose lower
// corner is at base with the multilinear weights of frac.
func (s *Surface) interpolate(base int, frac *[maxSurfaceDims]float64) float64 {
	d := len(s.axes)
	var out float64
	for corner := 0; corner < 1<<d; corner++ {
		w := 1.0
		off := 0
		for i := 0; i < d; i++ {
			if corner&(1<<i) != 0 {
				w *= frac[i]
				off += s.strides[i]
			} else {
				w *= 1 - frac[i]
			}
		}
		if w != 0 {
			out += w * s.values[base+off]
		}
	}
	return out
}

// EvaluateVecWithBound is EvaluateVec plus the local interpolation
// error bound the error map holds for the query: that of its grid cell,
// or of its node along aligned axes (WithSurfaceAlignedAxes), +Inf when
// an aligned coordinate is off its nodes. Without an error map
// (WithSurfaceErrorMap) the bound is reported as 0. Callers that must
// never act on an uncertain value — e.g. an admission decision near its
// accept threshold — compare the bound against their decision margin
// and fall back to the exact engine when it does not clear.
func (s *Surface) EvaluateVecWithBound(vals ...float64) (value, bound float64, err error) {
	if len(vals) != len(s.axes) {
		return 0, 0, fmt.Errorf("fuzzy: got %d input values, want %d", len(vals), len(s.axes)) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	var frac [maxSurfaceDims]float64
	base, ei := 0, 0
	onNodes := true
	for i := range s.axes {
		j, f := s.axes[i].Locate(vals[i])
		frac[i] = f
		base += j * s.strides[i]
		if s.errs != nil {
			k, ok := s.errIndex(i, j, f)
			ei += k * s.errStrides[i]
			onNodes = onNodes && ok
		}
	}
	// The corner loop of interpolate, inlined: this is the lookup on
	// every compiled admission decision.
	d := len(s.axes)
	var out float64
	for corner := 0; corner < 1<<d; corner++ {
		w := 1.0
		off := 0
		for i := 0; i < d; i++ {
			if corner&(1<<i) != 0 {
				w *= frac[i]
				off += s.strides[i]
			} else {
				w *= 1 - frac[i]
			}
		}
		if w != 0 {
			out += w * s.values[base+off]
		}
	}
	switch {
	case s.errs == nil:
	case !onNodes:
		bound = math.Inf(1)
	default:
		bound = s.errs[ei]
	}
	return out, bound, nil
}

// AxisRangeBounds bounds the surface over every grid cell that the
// interval spanned by the axis coordinate of vals and the points in
// extra intersects, holding the other coordinates fixed: it returns
// the largest absolute slope along the axis across those cells' edges
// and the largest error-map bound among them (zero without an error
// map). The error bound follows EvaluateVecWithBound: it is +Inf when
// an aligned coordinate is off its nodes, and when the range runs
// along an aligned axis.
//
// A caller composing surfaces can use it to propagate an upstream error
// bound: when the true input may lie anywhere in [x-bound, x+bound],
// the slope and error of every cell that interval touches matter, not
// just the cell the interpolated value fell in. No decision path calls
// it; perfbench's surface rung (perfbench/ladder.go) does.
func (s *Surface) AxisRangeBounds(axis int, extra []float64, vals ...float64) (slope, errBound float64, err error) {
	if len(vals) != len(s.axes) {
		return 0, 0, fmt.Errorf("fuzzy: got %d input values, want %d", len(vals), len(s.axes)) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	if axis < 0 || axis >= len(s.axes) {
		return 0, 0, fmt.Errorf("fuzzy: axis %d out of range (surface has %d)", axis, len(s.axes)) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	base, ei := 0, 0
	onNodes := true
	var lo [maxSurfaceDims]int
	for i := range s.axes {
		j, f := s.axes[i].Locate(vals[i])
		lo[i] = j
		base += j * s.strides[i]
		if s.errs != nil && i != axis {
			k, ok := s.errIndex(i, j, f)
			ei += k * s.errStrides[i]
			onNodes = onNodes && ok
		}
	}
	jLo, jHi := lo[axis], lo[axis]
	for _, x := range extra {
		j, _ := s.axes[axis].Locate(x)
		if j < jLo {
			jLo = j
		}
		if j > jHi {
			jHi = j
		}
	}
	d := len(s.axes)
	ax := s.axes[axis]
	for j := jLo; j <= jHi; j++ {
		shift := (j - lo[axis]) * s.strides[axis]
		width := ax.nodes[j+1] - ax.nodes[j]
		// Enumerate the 2^(d-1) cell edges parallel to the axis.
		for corner := 0; corner < 1<<d; corner++ {
			if corner&(1<<axis) != 0 {
				continue
			}
			off := shift
			for i := 0; i < d; i++ {
				if corner&(1<<i) != 0 {
					off += s.strides[i]
				}
			}
			delta := s.values[base+off+s.strides[axis]] - s.values[base+off]
			if delta < 0 {
				delta = -delta
			}
			if sl := delta / width; sl > slope {
				slope = sl
			}
		}
	}
	if s.errs == nil {
		return slope, 0, nil
	}
	if !onNodes || s.aligned&(1<<axis) != 0 {
		// Between the nodes of an aligned axis nothing was probed.
		return slope, math.Inf(1), nil
	}
	for j := jLo; j <= jHi; j++ {
		if e := s.errs[ei+j*s.errStrides[axis]]; e > errBound {
			errBound = e
		}
	}
	return slope, errBound, nil
}

// String returns a compact description such as "Cv[67x71x67]".
func (s *Surface) String() string {
	dims := make([]string, len(s.axes))
	for i, ax := range s.axes {
		dims[i] = fmt.Sprint(ax.N())
	}
	return fmt.Sprintf("%s[%s]", s.name, strings.Join(dims, "x"))
}
