// Package facs implements the paper's contribution: the Fuzzy
// Admission Control System. It wires two Mamdani controllers in
// series —
//
//	FLC1 (prediction): Speed, Angle, Distance      -> Correction value Cv
//	FLC2 (admission):  Cv, Request, Counter state  -> Accept/Reject  A/R
//
// with the exact term sets, membership-function shapes (paper Figs. 5,
// 6) and rule bases FRB1/FRB2 (paper Tables 1, 2).
//
// # Exact and compiled paths
//
// System is the exact two-stage inference and the reference: it
// computes the crisp Cv and A/R values, the grade and the accept/reject
// outcome. CompiledController answers only accept/reject; its Evaluate
// is System.Evaluate. Its decisions are meant to equal the exact
// System's. The FLC1 stage is certified (fuzzy.Enclosure proves its Cv
// ranges), and the FLC2 stage rests on interpolation error bounds that
// are probed at cell centres, not proven, so the equality is checked
// there (every accept-table interval against the exact engines, and the
// golden sets of compiled_test.go), not certified.
//
// A compiled decision (Decide, DecideBatchInto) is compare-only. The
// FLC2 surface pins a node at every integral R and Cs, and its error
// map is aligned to those nodes (fuzzy.WithSurfaceAlignedAxes), so at
// each (R, Cs) it is a piecewise-linear function of Cv with one error
// bound per Cv cell. From those alone the controller builds, at
// construction, an accept table: per (handoff, R, Cs), the Cv intervals
// on which the surface minus its bound clears the threshold (certain
// accept) or plus its bound stays below it (certain reject), by a
// margin ε. A Cv range inside one interval takes its class as the
// verdict. A decision then runs cell → sub-cell → exact:
//
//   - cell: the enclosure of exact FLC1 over the query's grid cell, from
//     three guided locates and one table read, once the cell has been
//     enclosed;
//   - sub-cell: where that range straddles a verdict (or lies where the
//     table is uncertain), the enclosure of the query's 2³ sub-cell,
//     then of its 4³ sub-cell;
//   - exact: anything else runs exact FLC1 and asks the table about the
//     exact Cv, a point range; only on a miss does exact FLC2 run.
//
// CellSettled counts the decisions a whole cell settles, and Stats the
// fast and exact ones. compiled_test.go pins decisions end to end
// against System.Decide, including a request on which the probed FLC1
// bounds that the enclosures replaced once flipped the verdict;
// accept_test.go checks every interval of the table against the exact
// engines; flc1cells_test.go checks racing fills against a sequential
// one, and that a cold decision allocates nothing.
//
// # Lazy FLC1 enclosures
//
// Construction compiles only FLC2 (its surface and accept table) and
// lays out FLC1's grid: one atomic word per grid cell (64³ cells, 2 MB
// at the default grid, two float32 ends rounded outward, 0 until
// enclosed) and a 512 KB store of sub-cell enclosures, both allocated
// up front. A decision that touches a cell no decision has touched
// encloses it, about 3 µs (BenchmarkFLC1Enclose), and publishes it with
// one compare-and-swap; an enclosure is a pure function of its cell, so
// racing shards store the same bits and need no lock. The store probes
// at most 16 slots per sub-cell, and a request whose sub-cell finds no
// slot goes exact. Enclosed counts the cells and sub-cells enclosed,
// counting only the store that publishes. On the seed-1 city-facs day
// (TestCityFACSWorkCountersPin) 124,377 requests fit their station;
// 97.17% settle on their cell, 1.78% on a sub-cell and 1.06% go exact,
// and the day encloses 7,296 cells (2.8% of the grid) and 4,468
// sub-cells. Construction takes 20–30 ms on two CPUs of an Intel
// Xeon, most of it the FLC2 surface (BenchmarkCompiledSurfaceBuild).
// FLC1Surface compiles FLC1's interpolation surface (275k nodes and a
// probed error map, about 0.15 s) on its first call, for callers that
// interpolate FLC1; no decision reads it.
//
// # Entry points
//
// New/Must build the exact System (Params, WithAcceptThreshold,
// WithHandoffBias...); NewCompiled/CompileSystem build the fast path;
// DefaultCompiled shares one compiled default instance (and the FLC1
// cells it has enclosed) process-wide;
// NewFLC1/NewFLC2 expose the raw engines. Both System and
// CompiledController implement cac.Controller and cac.BatchController.
package facs
