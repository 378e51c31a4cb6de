package facs

import (
	icac "facs/internal/cac"
	icell "facs/internal/cell"
	ifacs "facs/internal/facs"
	igeo "facs/internal/geo"
	igps "facs/internal/gps"
	iscc "facs/internal/scc"
	itraffic "facs/internal/traffic"
)

// Point is a plane position in metres.
type Point = igeo.Point

// Hex is an axial hexagonal-grid coordinate (one radio cell).
type Hex = igeo.Hex

// System is the paper's Fuzzy Admission Control System: FLC1 and FLC2 in
// series plus the crisp accept threshold. It implements Controller and is
// safe for concurrent use.
type System = ifacs.System

// Params holds every membership-function break-point of both fuzzy
// controllers; DefaultParams returns the paper's layout (Figs. 5 and 6).
type Params = ifacs.Params

// SystemOption configures a System.
type SystemOption = ifacs.Option

// Evaluation traces one FACS decision: the correction value Cv, the crisp
// accept/reject value AR, the soft Grade and the final outcome.
type Evaluation = ifacs.Evaluation

// Grade is the soft decision of FLC2: one of the paper's five output
// terms {Reject, Weak Reject, Not-Reject-Not-Accept, Weak Accept, Accept}.
type Grade = ifacs.Grade

// Soft decision grades.
const (
	GradeReject     = ifacs.GradeReject
	GradeWeakReject = ifacs.GradeWeakReject
	GradeNRNA       = ifacs.GradeNRNA
	GradeWeakAccept = ifacs.GradeWeakAccept
	GradeAccept     = ifacs.GradeAccept
)

// DefaultAcceptThreshold is the default crisp decision boundary on the
// A/R axis.
const DefaultAcceptThreshold = ifacs.DefaultAcceptThreshold

// DefaultParams returns the paper's membership-function layout.
func DefaultParams() Params { return ifacs.DefaultParams() }

// NewSystem constructs a FACS with the paper's defaults, applying options.
func NewSystem(opts ...SystemOption) (*System, error) { return ifacs.New(opts...) }

// MustSystem is like NewSystem but panics on error.
func MustSystem(opts ...SystemOption) *System { return ifacs.Must(opts...) }

// System options (see the corresponding internal/facs documentation).
var (
	// WithParams overrides the membership break-points.
	WithParams = ifacs.WithParams
	// WithAcceptThreshold overrides the crisp decision boundary.
	WithAcceptThreshold = ifacs.WithAcceptThreshold
	// WithHandoffBias prioritises handoff requests by a fixed A/R bonus.
	WithHandoffBias = ifacs.WithHandoffBias
)

// CompiledSystem is the lookup-table fast path of the FACS: both fuzzy
// controllers sampled into dense interpolation surfaces at construction
// time, so most decisions cost a table read instead of two Mamdani
// inferences. It answers accept/reject only (Decide, DecideBatchInto),
// re-running the exact engines for the rare request its error bounds
// cannot settle; its Evaluate is the exact System.Evaluate. It
// implements Controller and is safe for concurrent use.
type CompiledSystem = ifacs.CompiledController

// NewCompiledSystem builds the exact System for the options and
// compiles it into the lookup-table fast path (gridSize <= 0 selects
// the default resolution). Compilation is a one-off cost of many exact
// inferences; amortise it over many decisions, or use
// DefaultCompiledSystem for the shared default instance.
func NewCompiledSystem(gridSize int, opts ...SystemOption) (*CompiledSystem, error) {
	return ifacs.NewCompiled(gridSize, opts...)
}

// DefaultCompiledSystem returns the process-wide shared compiled FACS
// for the default configuration, compiling it on first use.
func DefaultCompiledSystem() (*CompiledSystem, error) { return ifacs.DefaultCompiled() }

// Observation is the FLC1 input triple for one user relative to one base
// station: speed (km/h), angle between the user's heading and the bearing
// towards the station (degrees; 0 = straight at it), and distance (km).
type Observation = igps.Observation

// Estimate is an absolute kinematic estimate (position, heading, speed)
// produced by the GPS substrate.
type Estimate = igps.Estimate

// Decision is an admission outcome (Accept or Reject).
type Decision = icac.Decision

// Admission outcomes.
const (
	Accept = icac.Accept
	Reject = icac.Reject
)

// Controller renders admission decisions; FACS, SCC and the classical
// baselines all implement it.
type Controller = icac.Controller

// DecideAll renders decisions for a batch of requests through the
// controller's native batch path — the allocation-free DecideBatchInto
// method of the FACS System, the compiled fast path, the SCC ledger and
// the guard-channel and threshold baselines — falling back to
// sequential Decide calls otherwise.
var DecideAll = icac.DecideAll

// AdmissionRequest is one admission question posed to a controller.
type AdmissionRequest = icac.Request

// Call is one admitted connection occupying bandwidth at a base station.
type Call = icell.Call

// BaseStation is one cell's radio resource manager with the paper's
// RTC/NRTC counters.
type BaseStation = icell.BaseStation

// Network is a hexagonal deployment of base stations.
type Network = icell.Network

// NetworkConfig parameterises a deployment.
type NetworkConfig = icell.NetworkConfig

// DefaultCapacityBU is the paper's base-station bandwidth: 40 BU.
const DefaultCapacityBU = icell.DefaultCapacityBU

// NewNetwork builds a hexagonal network.
var NewNetwork = icell.NewNetwork

// Class identifies a service class (Text, Voice or Video).
type Class = itraffic.Class

// The paper's service classes: text (1 BU, non-real-time), voice (5 BU)
// and video (10 BU, both real-time).
const (
	Text  = itraffic.Text
	Voice = itraffic.Voice
	Video = itraffic.Video
)

// TrafficMix is a probability mix over the service classes;
// DefaultTrafficMix returns the paper's 60/30/10 composition.
type TrafficMix = itraffic.Mix

// DefaultTrafficMix returns the paper's 60/30/10 text/voice/video mix.
func DefaultTrafficMix() TrafficMix { return itraffic.DefaultMix() }

// SCC is the Shadow Cluster Concept baseline controller.
type SCC = iscc.Controller

// SCCConfig parameterises the SCC baseline. SCC reserves in full: a
// tracked call reserves its whole bandwidth in every cell its shadow
// reaches with InclusionProb.
type SCCConfig = iscc.Config

// NewSCC constructs a shadow-cluster controller.
func NewSCC(cfg SCCConfig) (*SCC, error) { return iscc.New(cfg) }

// SCCLedger is the incrementally maintained shadow-cluster controller:
// a dense [cell][interval] demand matrix plus cached per-call
// footprints make Decide O(horizon x cluster-cells) independent of the
// number of active calls, with decisions byte-identical to SCC's
// recompute-on-query path (see internal/scc/DESIGN.md).
type SCCLedger = iscc.Ledger

// NewSCCLedger constructs an incrementally maintained shadow-cluster
// controller. Prefer it over NewSCC on hot admission paths; the
// recompute SCC remains the reference oracle.
func NewSCCLedger(cfg SCCConfig) (*SCCLedger, error) { return iscc.NewLedger(cfg) }

// SCCLedgerStats is a point-in-time snapshot of an SCCLedger's internal
// counters — ghost-exchange activity, migrations and shadow work —
// taken via SCCLedger.Snapshot under the lock that serializes the
// ledger (e.g. a ShardedEngine.Do barrier). Snapshots aggregate with
// Add; facs-serve prints the per-shard total at end of stream.
type SCCLedgerStats = iscc.LedgerStats

// CompleteSharing is the simplest baseline: admit whenever the call fits.
type CompleteSharing = icac.CompleteSharing

// GuardChannel reserves bandwidth for handoffs.
type GuardChannel = icac.GuardChannel

// ThresholdPolicy caps each class's occupancy (multi-priority threshold).
type ThresholdPolicy = icac.ThresholdPolicy

// NewGuardChannel constructs a guard-channel baseline.
var NewGuardChannel = icac.NewGuardChannel

// NewThresholdPolicy constructs a multi-priority-threshold baseline.
var NewThresholdPolicy = icac.NewThresholdPolicy
