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
// that AggregatedOutput.At makes, keeping only the non-zero (term,
// membership) pairs of each sample in term order and each term's first
// and last non-zero sample. A sample's aggregate is then the running
// max of the clip min(w, m) over its pairs whose term fired, and the
// sums run only over the hull of the fired terms' non-zero samples.
// Both shortcuts are exact, so the table gives the same bits as
// sampling through At:
//
//   - A fired term (w > 0) with membership 0 clips to 0, and best
//     starts at +0 and only grows on a strict >, so skipping that term
//     cannot change best.
//   - Outside the hull every sample's aggregate is +0, so it adds y*0
//     = ±0 to num and +0 to den. In round-to-nearest, x + ±0 = x for
//     every x except -0, and a running sum that starts at +0 is never
//     -0 (an exact cancellation rounds to +0), so skipping those
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
// can load surfaces in milliseconds instead of recompiling for seconds.
// The checksum is not a secret, so the decoder also refuses axis nodes
// that are not finite and error bounds that are negative or NaN.
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
