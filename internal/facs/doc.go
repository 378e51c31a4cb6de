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
// margin ε. One FLC1 lookup gives Cv and its error bound b1; when
// [Cv−b1, Cv+b1] lies inside one interval its class is the verdict,
// and otherwise the exact engines decide (about 2% of the decisions
// on the city-facs benchmark, 1% of a uniformly random workload).
// Evaluate, which reports the crisp values and the grade as well,
// interpolates both surfaces and re-runs the exact engines when the
// A/R value lands within the propagated bound of the accept threshold
// or a grade boundary. compiled_test.go pins the contract end to end;
// accept_test.go checks every interval of the table against the exact
// engines.
//
// # Surface persistence
//
// Compiling the default surfaces costs about half a second, so
// CompileSystemCached/NewCompiledCached put a load-or-compile cache in
// front: an entry is one snap envelope nesting both surfaces
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
