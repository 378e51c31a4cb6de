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
// decision grades NEVER differ — each surface carries per-cell error
// bounds, and any query whose interpolated A/R value lands within the
// propagated bound of the accept threshold or a grade boundary is
// re-run on the exact engines. The golden-equivalence suite in
// compiled_test.go pins both halves of the contract.
//
// # Surface persistence
//
// Compiling the default surfaces costs about half a second, so
// CompileSystemCached/NewCompiledCached put a load-or-compile cache in
// front: entries are versioned binary blobs (fuzzy.EncodeSurface)
// validated by a config+grid hash and a checksum, making a warm
// service restart milliseconds instead of a recompile. CompileCount
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
