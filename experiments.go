package facs

import (
	iexp "facs/internal/experiments"
	imetrics "facs/internal/metrics"
	iplot "facs/internal/plot"
)

// Span is a closed interval for sampling per-user parameters; Pin returns
// a degenerate span (a constant).
type Span = iexp.Span

// Pin returns a span holding exactly v.
func Pin(v float64) Span { return iexp.Pin(v) }

// SingleCellConfig parameterises the paper's single-base-station scenario
// (Figs. 7-9); SingleCellResult aggregates one run.
type (
	SingleCellConfig = iexp.SingleCellConfig
	SingleCellResult = iexp.SingleCellResult
)

// RunSingleCell executes the single-cell scenario.
var RunSingleCell = iexp.RunSingleCell

// RunSingleCellSeeds runs the single-cell scenario once per seed on a
// worker pool (workers <= 0 selects DefaultWorkers), returning
// per-seed results in seed order; the output is identical for every
// worker count.
var RunSingleCellSeeds = iexp.RunSingleCellSeeds

// MultiCellConfig parameterises the Fig. 10 multi-cell handoff scenario;
// MultiCellResult aggregates one run.
type (
	MultiCellConfig = iexp.MultiCellConfig
	MultiCellResult = iexp.MultiCellResult
)

// RunMultiCell executes the multi-cell scenario.
var RunMultiCell = iexp.RunMultiCell

// RunMultiCellSeeds runs the multi-cell scenario once per seed on a
// worker pool, returning per-seed results in seed order; the output is
// identical for every worker count.
var RunMultiCellSeeds = iexp.RunMultiCellSeeds

// DefaultWorkers is the worker-pool size used when a configuration
// leaves Workers at zero: one per CPU.
var DefaultWorkers = iexp.DefaultWorkers

// HandoffPolicy selects how handoffs are admitted in the multi-cell
// scenario: HandoffPhysical admits whenever the target cell has room
// (the paper's implicit baseline), HandoffControlled routes the handoff
// through the admission controller (the paper's future work; pair with
// WithHandoffBias).
type HandoffPolicy = iexp.HandoffPolicy

// Handoff policies.
const (
	HandoffPhysical   = iexp.HandoffPhysical
	HandoffControlled = iexp.HandoffControlled
)

// Figure is one regenerated paper artifact; FigureConfig controls load
// points and replication seeds.
type (
	Figure       = iexp.Figure
	FigureConfig = iexp.FigureConfig
)

// Figure regenerators, one per result figure of the paper, plus the
// ablation studies enumerated in internal/experiments/ablations.go.
var (
	Figure7                 = iexp.Figure7
	Figure8                 = iexp.Figure8
	Figure9                 = iexp.Figure9
	Figure10                = iexp.Figure10
	AllFigures              = iexp.AllFigures
	AblationDefuzzifier     = iexp.AblationDefuzzifier
	AblationThreshold       = iexp.AblationThreshold
	AblationSCC             = iexp.AblationSCC
	AblationBaselines       = iexp.AblationBaselines
	AblationGPSNoise        = iexp.AblationGPSNoise
	AblationHandoffPriority = iexp.AblationHandoffPriority
	AblationQueueing        = iexp.AblationQueueing
	AllAblations            = iexp.AllAblations
)

// FACSFactory and SCCFactory build the Fig. 10 contestants for multi-cell
// runs; they live in the contestant catalogue
// (internal/experiments/contestants.go) that facs-sim, facs-serve and
// the figures build their controllers from. SCCFactory supplies the
// incremental demand-ledger SCC.
var (
	FACSFactory = iexp.FACSFactory
	SCCFactory  = iexp.SCCFactory
)

// BatchAdmissionConfig parameterises the batch admission sweep: a
// network snapshot under load against which a batch of candidate
// requests is decided in one DecideAll pass; BatchAdmissionResult
// aggregates the outcomes.
type (
	BatchAdmissionConfig = iexp.BatchAdmissionConfig
	BatchAdmissionResult = iexp.BatchAdmissionResult
)

// RunBatchAdmission executes the batch admission sweep.
var RunBatchAdmission = iexp.RunBatchAdmission

// MetropolisConfig parameterises the metropolis-scale workload: a
// city-sized hex deployment (a thousand-plus cells by default) under
// one simulated day of diurnal traffic with rush-hour mobility steered
// toward hot-spot cells; MetropolisResult aggregates one run, including
// the DecisionHash byte-identity fingerprint and throughput/memory
// figures.
type (
	MetropolisConfig = iexp.MetropolisConfig
	MetropolisResult = iexp.MetropolisResult
)

// MetropolisMode selects the decision path carrying the metropolis
// workload: inline batch waves (MaxBatch 1 is the classic one-at-a-time
// loop) or a sharded engine. For cell-local controllers both paths
// produce byte-identical outcomes at matching chunk sizes.
type MetropolisMode = iexp.MetropolisMode

// Metropolis decision paths.
const (
	MetroBatch   = iexp.MetroBatch
	MetroSharded = iexp.MetroSharded
)

// RunMetropolis executes the metropolis-scale scenario. Outcomes are
// deterministic in the config: repeats produce identical DecisionHash
// values, and for cell-local controllers so do all shard counts and
// modes (at matching chunk sizes).
var RunMetropolis = iexp.RunMetropolis

// MetroSnapshotFile is the file name periodic metropolis snapshots
// take inside MetropolisConfig.SnapshotDir; pass its path as Restore
// to warm-start a later run. Restore-then-replay is byte-identical to
// an uninterrupted run (same DecisionHash).
const MetroSnapshotFile = iexp.MetroSnapshotFile

// Series is a labelled (x, y) curve, the unit of figure regeneration.
type Series = imetrics.Series

// ChartOptions controls ASCII chart rendering.
type ChartOptions = iplot.Options

// Chart renders series as an ASCII line chart with a legend.
var Chart = iplot.Chart

// Table renders series as an aligned text table.
var Table = iplot.Table

// CSV renders series as comma-separated values.
var CSV = iplot.CSV
