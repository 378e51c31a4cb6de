// Package fuzzy implements the Mamdani fuzzy-inference pipeline of the
// paper's two fuzzy logic controllers (FLC1 and FLC2): linguistic
// variables over the triangular f(x; x0, a0, a1) and trapezoidal
// g(x; x0, x1, a0, a1) membership functions of the paper (Fig. 3), rule
// tables of AND-ed clauses, min inference with clip implication and max
// aggregation, and centroid defuzzification (plus the bisector,
// mean-of-maxima and weighted-average defuzzifiers the ablations
// compare). Nothing in this package knows about call admission control.
//
// # Exact inference
//
// Engine.EvaluateVec is allocation-free: fuzzified degrees and term
// strengths live in fixed-size stack scratch (heap only for engines
// larger than it), and the built-in defuzzifiers are called
// statically so the aggregated output stays on the stack. EvaluateVec,
// Infer and Explain share one fuzzify-and-fire loop.
//
// The integral defuzzifiers (Centroid, Bisector, MeanOfMaxima) sample
// the aggregated output at y_i = min + float64(i)*step; an engine
// always uses 201 samples. NewEngine tabulates the output terms'
// memberships at those points once, with the same Membership calls
// that AggregatedOutput.At makes: per term, one dense slice from its
// first to its last non-zero sample. A defuzzifier builds the 201
// aggregate samples in a stack buffer of +0s, term by term in term
// order: each fired term (w > 0) raises every sample of its slice to
// the clip min(w, m) where that is strictly greater. The sums then run
// in sample order over the hull of the fired terms' slices. Both steps
// are exact, so the table gives the same bits as sampling through At:
//
//   - Term order: At visits a sample's terms in term order, starting
//     from best = +0 and replacing it only on a strict >. The term-major
//     loop makes the same comparisons on each sample in the same
//     order, so each sample ends with the same value.
//   - ±0: a term At would see with membership 0 at a sample (outside
//     its slice, or a zero inside it) clips to ±0, which is never
//     strictly greater than a best that starts at +0, so skipping it or
//     visiting it changes nothing. A NaN membership is kept and clips
//     to w, as in At.
//   - Hull: outside the hull every sample's aggregate is +0, so it adds
//     y*0 = ±0 to num and +0 to den. In round-to-nearest, x + ±0 = x
//     for every x except -0, and a running sum that starts at +0 is
//     never -0 (an exact cancellation rounds to +0), so skipping those
//     samples leaves every sum unchanged. MeanOfMaxima ignores a zero
//     sample outright, since best >= 0. Bisector's second walk still
//     starts at sample 0, because total/2 may round to zero.
//
// The table is read only when a Defuzzify call's resolution is the
// one it was built for. Custom defuzzifiers and Defuzzify calls at any
// other resolution sample through At. TestEngineMatchesSamplingReference
// pins the table to the At-based loops bit for bit.
//
// # Compiled surfaces
//
// Surface is the lookup-table fast path: an engine sampled over a
// breakpoint-aligned grid at construction time and answered by
// multilinear interpolation — exact at grid nodes, bounded-error
// between them, with optional local error bounds
// (WithSurfaceErrorMap) that let callers guard decisions near
// thresholds. A Surface is immutable and safe for concurrent use.
// EncodeSurface/DecodeSurface persist a compiled surface as the
// "fuzzy-surface" kind of the internal/snap envelope, versioned by
// snap.FormatVersion, checksummed and validated against a caller config
// hash (snap.ErrSnapshotStale, snap.ErrSnapshotCorrupt), so processes
// can load surfaces in milliseconds instead of recompiling them.
// The checksum is not a secret, so the decoder also refuses axis nodes
// that are not finite and error bounds that are negative or NaN.
//
// # Compilation
//
// NewSurface fills a grid in row-major order, so consecutive nodes
// mostly differ in the last axis only. Each compile worker evaluates
// through its own grid evaluator, which re-fuzzifies only the axes
// from the first one whose input bits changed, and keeps for every
// rule its running min before its first clause on each axis (in the
// rule's own clause order, so rules that omit inputs or list them out
// of order are replayed exactly) together with the rules not yet
// broken off at each axis. It then memoises the defuzzified value in a
// direct-mapped cache of 4096 slots keyed by the full bit pattern of
// the strength vector; a slot answers only on a full key match, and
// errors are never stored. The memo serves Centroid, Bisector and
// MeanOfMaxima only: their output is a pure function of those bits and
// costs a sampled aggregate, where WeightedAverage's mean costs no more
// than the memo's hash.
// Every node gets the bits Engine.EvaluateVec returns, error included;
// Engine.fire stays the one reference firing loop, and
// TestSurfaceExactAtNodes holds the evaluator and the compiled tables
// to it and to an At-based oracle. On the paper's FLC1 at the default
// grid, 34,540 distinct strength vectors cover 274,625 nodes, and a
// worker's memo answers about three lookups in four.
//
// # Error maps and aligned axes
//
// By default the error map holds one bound per grid cell: the engine
// is probed at the cell centre, the difference to the interpolated
// value is scaled by a safety factor, and every bound is widened to the
// maximum of its 3^d cell neighbourhood. WithSurfaceAlignedAxes
// declares axes whose queries always land on grid nodes (discrete
// inputs pinned with WithSurfaceNodes). Along those axes the map holds
// one bound per node instead: the probe sits on the node, at the
// centre of the cell along the other axes, and the dilation runs along
// the other axes only. Interpolation is exact at a node, so an aligned
// bound covers only the error the unaligned axes contribute and is
// much tighter than the cell bound. EvaluateVecWithBound and
// AxisRangeBounds report +Inf for a query whose aligned coordinate is
// off its nodes after clamping, so a guarded caller falls back to the
// exact engine rather than trust a bound that was never probed.
// Profile returns a surface along one axis — node values and each
// cell's bound — for callers that precompute decisions from it.
//
// # Locating a query and cell ranges
//
// Every lookup first locates each coordinate's cell. An axis keeps a
// guide table of two uniform buckets per cell, each naming the last
// node whose bucket is below it; the bucket of a coordinate never
// decreases as it grows, so that node is at or below the query's cell,
// and a short forward step finds the cell. It returns the (j, f) a
// binary search would, clamping included. CellRanges summarises a
// surface whose error map has no aligned axes cell by cell: [min
// corner − b, max corner + b], padded past rounding and stored as an
// outward-rounded float32 pair. The range a point lookup implies,
// value ± bound, lies inside its cell's range, because the
// interpolated value is a convex combination of the corners. A caller
// that can settle a question from the cell range skips the
// interpolation; internal/facs settles most admission decisions that
// way before it interpolates FLC1.
//
// # Entry points
//
// NewVariable/NewTriangular/NewTrapezoidal (and the shoulder forms)
// build the vocabulary; Rule literals write the rule table; NewEngine
// (with WithDefuzzifier) assembles a controller; Engine.EvaluateVec runs
// one inference, Infer stops before defuzzification and Explain reports
// the fired rules; NewSurface compiles the lookup table and
// NewCellRanges its per-cell summary.
package fuzzy
