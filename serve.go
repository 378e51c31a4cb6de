package facs

import (
	ifacs "facs/internal/facs"
	iserve "facs/internal/serve"
)

// AdmissionService is the streaming admission front end: a long-lived
// micro-batching service over any admission controller. Concurrent
// submitters stream requests; an intake goroutine coalesces them into
// batches (bounded by MaxBatch/MaxDelay), and one lock serializes
// their decisions with waves, ticks, releases and state updates, all
// run on the caller, so stateful controllers keep their invariants.
// See internal/serve for the full contract.
type AdmissionService = iserve.Service

// ServeConfig parameterises an AdmissionService.
type ServeConfig = iserve.Config

// ServeResponse is the outcome of one streamed admission request,
// including its service-side latency and micro-batch size.
type ServeResponse = iserve.Response

// ServeStats is a snapshot of the service throughput, latency,
// accept-rate and batching counters.
type ServeStats = iserve.Stats

// Streaming service defaults.
const (
	DefaultServeMaxBatch = iserve.DefaultMaxBatch
	DefaultServeMaxDelay = iserve.DefaultMaxDelay
)

// ErrServiceClosed is returned by service submissions after Close.
var ErrServiceClosed = iserve.ErrClosed

// NewAdmissionService starts a streaming admission service over the
// configured controller.
func NewAdmissionService(cfg ServeConfig) (*AdmissionService, error) { return iserve.New(cfg) }

// SurfaceCacheInfo reports how a cached compile was satisfied: a clean
// miss (compiled and written), a hit (decoded in milliseconds, no
// compilation), or a stale entry (failed validation, recompiled and
// overwritten).
type SurfaceCacheInfo = ifacs.CacheInfo

// NewCompiledSystemCached is NewCompiledSystem behind a load-or-compile
// surface cache: dir holds versioned binary surface tables validated by
// a config+grid hash and a checksum, so a process restart skips the
// seconds-long surface compilation whenever a valid entry exists. An
// empty dir always compiles.
func NewCompiledSystemCached(gridSize int, dir string, opts ...SystemOption) (*CompiledSystem, SurfaceCacheInfo, error) {
	return ifacs.NewCompiledCached(gridSize, dir, opts...)
}

// CompileCount returns the number of FACS surface compilations this
// process has performed — the counter cached startups leave unchanged.
func CompileCount() int64 { return ifacs.CompileCount() }
