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
// is System.Evaluate. Its decisions equal the exact System's, and both
// stages are certified: fuzzy.Enclosure proves FLC1's Cv ranges and
// FLC2's verdict over Cv intervals. compiled_test.go's golden sets and
// accept_test.go check the equality against the exact engines too.
//
// A compiled decision (Decide, DecideBatchInto) is compare-only. An
// accept table holds, per (handoff, R, Cs) row, the Cv intervals on
// which an enclosure of exact FLC2 over (Cv piece, R, Cs) lies wholly
// on one side of the verdict that System applies (handoff bias, cap at
// 1, accept threshold). That verdict never decreases in the A/R value,
// so a piece whose enclosure's low end is accepted is accepted
// throughout, and one whose high end is rejected is rejected
// throughout. A Cv range inside one interval takes its class as the
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
// accept_test.go forces every row of the table and checks each interval
// against the exact engines; flc1cells_test.go checks racing fills
// against a sequential one, and that a cold decision allocates nothing.
//
// # Lazy enclosures
//
// Construction compiles no surface. It lays out FLC1's grid: one atomic
// word per grid cell (64³ cells, 2 MB at the default grid, two float32
// ends rounded outward, 0 until enclosed) and a 512 KB store of
// sub-cell enclosures. It also lays out the accept table: one row of 15
// words per (R, Cs), 451 rows and 54 KB at the paper's 10 BU requests
// and 40 BU cells, twice that under a handoff bias, when handoffs have
// rows of their own. All of it is allocated up front, and nothing is
// filled.
//
// A decision that touches a cell no decision has touched encloses it,
// about 3 µs (BenchmarkFLC1Enclose). A decision that reads a row no
// decision has read fills it: it encloses FLC2 over the whole Cv
// universe and bisects only the pieces whose enclosure straddles the
// verdict, down to 2^-11 of the universe, then merges the certain
// pieces into at most 7 intervals. An FLC2 enclosure costs about 2.5
// µs, and a row about 19 of them on average (BenchmarkAcceptRowFill).
// Every store is a pure function of its index, so racing shards store
// the same bits and publish with one compare-and-swap, with no lock and
// no allocation. The sub-cell store probes at most 16 slots per
// sub-cell, and a request whose sub-cell finds no slot goes exact.
// Enclosed counts the cells and sub-cells enclosed and RowsFilled the
// rows and their FLC2 enclosures, counting only the store that
// publishes.
//
// On the seed-1 city-facs day (TestCityFACSWorkCountersPin) 124,377
// requests fit their station; 97.21% settle on their cell, 1.77% on a
// sub-cell and 1.01% go exact. The day encloses 7,296 cells (2.8% of
// the grid) and 4,341 sub-cells, and fills 104 of the 451 rows with
// 3,704 FLC2 enclosures. FLC1Surface and FLC2Surface compile the
// interpolation surfaces (with probed error maps; about 0.15 s and
// 0.02 s, BenchmarkCompiledSurfaceBuild) on their first call, for
// callers that interpolate; no decision reads them.
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
