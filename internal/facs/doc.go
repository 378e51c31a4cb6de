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
// System is the exact two-stage inference; CompiledController answers
// the same queries from dense interpolation surfaces
// (fuzzy.Surface) at ~8x the throughput. The contract between
// them is asymmetric on purpose: crisp Cv and A/R values carry a small
// documented interpolation tolerance, but accept/reject outcomes and
// decision grades NEVER differ.
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
// verdict. A decision then runs cell → point → exact:
//
//   - cell: the FLC1 cell ranges (fuzzy.CellRanges, built at
//     construction) give the range FLC1's exact output can take anywhere
//     in the query's grid cell, from three guided locates and one read,
//     with no interpolation;
//   - point: on a miss, one FLC1 interpolation gives Cv and its error
//     bound b1, and [Cv−b1, Cv+b1] is asked instead. It lies inside the
//     cell range, so the cell check never settles a request the point
//     check would not settle the same way;
//   - exact: anything else runs exact FLC1 (about 2% of the decisions
//     on the city-facs benchmark, 1% of a uniformly random workload)
//     and asks the table about the exact Cv, a point range; only on a
//     miss does exact FLC2 run (about a fifth of these on the city-facs
//     benchmark's seed-1 day).
//
// On BenchmarkCompiledDecideBatch's batch the cell check settles 459
// of the 465 decisions that reach the surfaces; CellSettled counts the
// decisions it settles.
// Evaluate, which reports the crisp values and the grade as well,
// interpolates both surfaces and re-runs the exact engines when the
// A/R value lands within the propagated bound of the accept threshold
// or a grade boundary. compiled_test.go pins the contract end to end;
// accept_test.go checks every interval of the table against the exact
// engines, and cellrange_test.go every FLC1 cell range against its
// corners and bound.
//
// # Surface persistence
//
// Compiling the default surfaces (NewCompiled(0): about 275k FLC1
// nodes and 262k error-map probes, plus the far smaller FLC2 table)
// takes about 0.2 s on two CPUs of an Intel Xeon
// (BenchmarkCompiledSurfaceBuild), so CompileSystemCached/
// NewCompiledCached put a load-or-compile cache in front: an entry is one snap envelope nesting both surfaces
// (fuzzy.EncodeSurface), validated by a config+grid hash and a
// checksum and written atomically with snap.WriteFileAtomic, making a
// warm service restart milliseconds instead of a recompile. CompileCount
// exposes the process-wide compilation counter the cache tests assert
// against.
//
// # Entry points
//
// New/Must build the exact System (Params, WithAcceptThreshold,
// WithHandoffBias...); NewCompiled/CompileSystem build the fast path;
// DefaultCompiled shares one compiled default instance process-wide;
// NewFLC1/NewFLC2 expose the raw engines. Both System and
// CompiledController implement cac.Controller and cac.BatchController.
package facs
