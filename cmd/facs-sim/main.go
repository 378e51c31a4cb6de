// Command facs-sim runs a single parametric simulation — either the
// paper's single-cell scenario (Figs. 7-9) or the multi-cell handoff
// scenario (Fig. 10) — and prints a result summary.
//
// Examples:
//
//	facs-sim -n 100 -speed 4                 # walking users, single cell
//	facs-sim -n 100 -angle 90                # sideways users
//	facs-sim -n 100 -multicell -controller scc
//	facs-sim -n 100 -controller guard -guard 8
//	facs-sim -n 100 -compiled                # lookup-table FACS fast path
//	facs-sim -n 100 -reps 8 -workers 4       # 8 replications on 4 workers
//	facs-sim -batch -n 10000 -active 500     # one-shot batch admission sweep
//	facs-sim -metropolis -controller guard   # city-scale diurnal day, batch path
//	facs-sim -metropolis -metro-mode sharded -shards 4 -target 500000
//	facs-sim -metropolis -rings 2 -capacity 40 -metro-mode sharded -shards 4  # contested
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"facs"
	icell "facs/internal/cell"
	iexp "facs/internal/experiments"
	igeo "facs/internal/geo"
	"facs/internal/prof"
	ishard "facs/internal/shard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "facs-sim:", err)
		os.Exit(1)
	}
}

// simOptions collects the parsed command line.
type simOptions struct {
	controller   string
	n            int
	window       float64
	holding      float64
	speed        float64
	angle        float64
	dist         float64
	seed         int64
	multicell    bool
	compiled     bool
	batch        bool
	active       int
	guard        int
	threshold    float64
	reps         int
	workers      int
	metropolis   bool
	metroMode    string
	shards       int
	partition    string
	rebalTicks   int
	rebalMoves   int
	rings        int
	target       int
	waves        int
	capacity     int
	measureMem   bool
	snapshotDir  string
	snapshotTick int
	restorePath  string
	cpuProfile   string
	memProfile   string
	traceOut     string
}

func run(args []string) error {
	fs := flag.NewFlagSet("facs-sim", flag.ContinueOnError)
	var o simOptions
	fs.StringVar(&o.controller, "controller", "facs", "admission controller: facs, scc, cs, guard, threshold")
	fs.IntVar(&o.n, "n", 100, "number of requesting connections")
	fs.Float64Var(&o.window, "window", 0, "arrival window in seconds (0 = scenario default)")
	fs.Float64Var(&o.holding, "holding", 120, "mean call holding time in seconds")
	fs.Float64Var(&o.speed, "speed", -1, "pin user speed in km/h (-1 = scenario default)")
	fs.Float64Var(&o.angle, "angle", 0, "pin user angle offset in degrees (single cell)")
	fs.Float64Var(&o.dist, "dist", -1, "pin user-BS distance in km (-1 = sample 0.5..9.5)")
	fs.Int64Var(&o.seed, "seed", 1, "random seed (first seed when -reps > 1)")
	fs.BoolVar(&o.multicell, "multicell", false, "run the multi-cell handoff scenario")
	fs.BoolVar(&o.batch, "batch", false, "decide -n requests in one batch against a network snapshot")
	fs.IntVar(&o.active, "active", 0, "calls pre-admitted into the -batch snapshot")
	fs.BoolVar(&o.compiled, "compiled", false, "use the lookup-table FACS fast path (controller facs only)")
	fs.IntVar(&o.guard, "guard", 8, "guard bandwidth for -controller guard")
	fs.Float64Var(&o.threshold, "accept-threshold", facs.DefaultAcceptThreshold, "FACS accept threshold")
	fs.IntVar(&o.reps, "reps", 1, "independent replications with seeds seed..seed+reps-1")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size for replications (0 = one per CPU)")
	fs.BoolVar(&o.metropolis, "metropolis", false, "run the metropolis-scale diurnal workload")
	fs.StringVar(&o.metroMode, "metro-mode", "batch", "metropolis decision path: batch, sharded")
	fs.IntVar(&o.shards, "shards", 1, "shards for -metro-mode sharded")
	fs.StringVar(&o.partition, "partition", "roundrobin", "initial shard layout for -metro-mode sharded: roundrobin, blocks")
	fs.IntVar(&o.rebalTicks, "rebalance-ticks", 0, "rebalance shard ownership every N tick barriers (-metro-mode sharded; 0 = static)")
	fs.IntVar(&o.rebalMoves, "rebalance-max-moves", 0, "cap cell migrations per rebalance epoch (0 = planner default)")
	fs.IntVar(&o.rings, "rings", 0, "hex rings for -metropolis (0 = default 18: 1027 cells)")
	fs.IntVar(&o.target, "target", 0, "peak concurrent-call target for -metropolis (0 = default 20000)")
	fs.IntVar(&o.waves, "waves", 0, "decision waves for -metropolis (0 = one simulated day)")
	fs.IntVar(&o.capacity, "capacity", 0, "per-station bandwidth in BU for -metropolis (0 = derived from -target, at least 40)")
	fs.BoolVar(&o.measureMem, "measure-mem", false, "report heap bytes per concurrent call at the population peak (-metropolis)")
	fs.StringVar(&o.snapshotDir, "snapshot-dir", "", "directory for durable run snapshots (-metropolis; written atomically as "+facs.MetroSnapshotFile+")")
	fs.IntVar(&o.snapshotTick, "snapshot-every-ticks", 0, "snapshot every N tick barriers into -snapshot-dir (-metropolis; 0 = only on interrupt)")
	fs.StringVar(&o.restorePath, "restore", "", "warm-start a -metropolis run from a snapshot file")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof allocs profile (post-GC) to this file")
	fs.StringVar(&o.traceOut, "trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.reps < 1 {
		return fmt.Errorf("-reps must be >= 1, got %d", o.reps)
	}
	if o.batch && o.multicell {
		return fmt.Errorf("-batch and -multicell are mutually exclusive")
	}
	if o.active != 0 && !o.batch {
		return fmt.Errorf("-active applies to -batch runs")
	}
	if o.batch && (o.reps > 1 || o.workers != 0) {
		return fmt.Errorf("-batch runs a single sweep; -reps/-workers do not apply")
	}
	if o.metropolis {
		if o.batch || o.multicell {
			return fmt.Errorf("-metropolis is exclusive with -batch and -multicell")
		}
		if o.reps > 1 || o.workers != 0 {
			return fmt.Errorf("-metropolis runs one scenario; -reps/-workers do not apply")
		}
		if o.capacity < 0 {
			return fmt.Errorf("-capacity must be >= 0, got %d", o.capacity)
		}
	} else if o.capacity != 0 {
		return fmt.Errorf("-capacity applies to -metropolis runs")
	}
	if !o.metropolis && (o.snapshotDir != "" || o.snapshotTick != 0 || o.restorePath != "") {
		return fmt.Errorf("-snapshot-dir/-snapshot-every-ticks/-restore apply to -metropolis runs")
	}
	stopProf, err := prof.Start(prof.Config{
		CPUProfile: o.cpuProfile,
		MemProfile: o.memProfile,
		Trace:      o.traceOut,
	})
	if err != nil {
		return err
	}
	scenario := runSingle
	switch {
	case o.metropolis:
		scenario = runMetropolis
	case o.batch:
		scenario = runBatch
	case o.multicell:
		scenario = runMulti
	}
	if err := scenario(o); err != nil {
		_ = stopProf()
		return err
	}
	return stopProf()
}

// seeds lists the replication seeds seed..seed+reps-1.
func (o simOptions) seeds() []int64 {
	out := make([]int64, o.reps)
	for i := range out {
		out[i] = o.seed + int64(i)
	}
	return out
}

// contestant returns the catalogue's constructor for the -controller
// flags. A compiled FACS reports its build timing on stderr.
func (o simOptions) contestant() (func(*facs.Network) (facs.Controller, error), error) {
	return iexp.Contestant{
		Name:            o.controller,
		GuardBU:         o.guard,
		AcceptThreshold: o.threshold,
		Compiled:        o.compiled,
		Log:             func(line string) { fmt.Fprintln(os.Stderr, "facs-sim:", line) },
	}.Factory()
}

func runSingle(o simOptions) error {
	if o.controller == "scc" {
		return fmt.Errorf("scc requires -multicell (its projections need a neighbourhood)")
	}
	factory, err := o.contestant()
	if err != nil {
		return err
	}
	ctrl, err := factory(nil) // every single-cell contestant is cell-local
	if err != nil {
		return err
	}
	cfg := facs.SingleCellConfig{
		Controller:     ctrl,
		NumRequests:    o.n,
		WindowSec:      o.window,
		MeanHoldingSec: o.holding,
		AngleOffsetDeg: facs.Pin(o.angle),
		Seed:           o.seed,
	}
	if o.speed >= 0 {
		cfg.SpeedKmh = facs.Pin(o.speed)
	}
	if o.dist >= 0 {
		cfg.DistanceKm = facs.Pin(o.dist)
	}
	results, err := facs.RunSingleCellSeeds(cfg, o.seeds(), o.workers)
	if err != nil {
		return err
	}
	res := results[0]
	fmt.Printf("scenario      single cell (40 BU)\n")
	fmt.Printf("controller    %s\n", ctrl.Name())
	if o.reps > 1 {
		printSingleReplications(o, results)
		return nil
	}
	fmt.Printf("requested     %d\n", res.Requested)
	fmt.Printf("accepted      %d (%.1f%%)\n", res.Accepted, res.AcceptedPct())
	for _, class := range []facs.Class{facs.Text, facs.Voice, facs.Video} {
		r := res.ByClass[class]
		fmt.Printf("  %-8s    %s\n", class, r)
	}
	fmt.Printf("occupancy     mean %.1f BU, max %.0f BU\n", res.Occupancy.Mean(), res.Occupancy.Max())
	fmt.Printf("observed      mean |angle| %.0f deg, mean speed %.0f km/h\n",
		res.MeanObservedAngleDeg.Mean(), res.MeanObservedSpeedKmh.Mean())
	return nil
}

func printSingleReplications(o simOptions, results []facs.SingleCellResult) {
	var sum float64
	for i, r := range results {
		fmt.Printf("rep %-3d seed=%-4d accepted %d/%d (%.1f%%)\n",
			i+1, o.seed+int64(i), r.Accepted, r.Requested, r.AcceptedPct())
		sum += r.AcceptedPct()
	}
	fmt.Printf("mean accepted %.1f%% over %d replications\n", sum/float64(len(results)), len(results))
}

// runBatch decides -n synthetic requests in one pass through the batch
// pipeline against a network snapshot with -active pre-admitted calls,
// reporting acceptance and decision throughput.
func runBatch(o simOptions) error {
	factory, err := o.contestant()
	if err != nil {
		return err
	}
	cfg := facs.BatchAdmissionConfig{
		NewController: factory,
		ActiveCalls:   o.active,
		Requests:      o.n,
		Seed:          o.seed,
	}
	start := time.Now()
	res, err := facs.RunBatchAdmission(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	perSec := float64(res.Requested) / elapsed.Seconds()
	fmt.Printf("scenario      batch admission sweep (7 x %d BU snapshot)\n", icell.DefaultCapacityBU)
	fmt.Printf("controller    %s\n", res.ControllerName)
	fmt.Printf("snapshot      %d active calls\n", res.PreAdmitted)
	fmt.Printf("requested     %d\n", res.Requested)
	fmt.Printf("accepted      %d (%.1f%%)\n", res.Accepted, res.AcceptedPct())
	fmt.Printf("throughput    %.0f decisions/s (%.2fs total, incl. setup)\n", perSec, elapsed.Seconds())
	return nil
}

// metroModes maps the -metro-mode flag to decision paths.
var metroModes = map[string]facs.MetropolisMode{
	"batch":   facs.MetroBatch,
	"sharded": facs.MetroSharded,
}

// runMetropolis runs the city-scale diurnal scenario through the
// selected decision path and reports throughput, handoff behaviour and
// the byte-identity decision digest.
func runMetropolis(o simOptions) error {
	mode, ok := metroModes[o.metroMode]
	if !ok {
		return fmt.Errorf("unknown -metro-mode %q (batch, sharded)", o.metroMode)
	}
	if o.shards != 1 && mode != facs.MetroSharded {
		return fmt.Errorf("-shards applies to -metro-mode sharded")
	}
	if o.shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", o.shards)
	}
	rings := o.rings
	if rings == 0 {
		rings = 18 // the metropolis default
	}
	if cells := igeo.SpiralLen(rings); rings >= 0 && o.shards > cells {
		return fmt.Errorf("-shards %d exceeds the deployment's %d cells (an empty shard could never receive traffic)", o.shards, cells)
	}
	partition, err := ishard.ParsePartition(o.partition)
	if err != nil {
		return err
	}
	if (o.partition != "roundrobin" || o.rebalTicks != 0 || o.rebalMoves != 0) && mode != facs.MetroSharded {
		return fmt.Errorf("-partition/-rebalance-ticks/-rebalance-max-moves apply to -metro-mode sharded")
	}
	if o.rebalTicks < 0 {
		return fmt.Errorf("-rebalance-ticks must be >= 0, got %d", o.rebalTicks)
	}
	factory, err := o.contestant()
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM closes the Stop channel: the run ends at the next
	// wave boundary and, with -snapshot-dir set, cuts a final snapshot a
	// later -restore run can resume from (restore-then-replay reproduces
	// the uninterrupted run's DecisionHash exactly).
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "facs-sim: %v: stopping at the next wave\n", s)
		close(stop)
	}()

	res, err := facs.RunMetropolis(facs.MetropolisConfig{
		NewController:       func(v facs.ShardView) (facs.Controller, error) { return factory(v.Network()) },
		Mode:                mode,
		Shards:              o.shards,
		Partition:           partition,
		RebalanceEveryTicks: o.rebalTicks,
		Rebalance:           facs.ShardPlannerConfig{MaxMoves: o.rebalMoves},
		Rings:               o.rings,
		CapacityBU:          o.capacity,
		TargetCalls:         o.target,
		Waves:               o.waves,
		Seed:                o.seed,
		MeasureMem:          o.measureMem,
		SnapshotDir:         o.snapshotDir,
		SnapshotEveryTicks:  o.snapshotTick,
		Restore:             o.restorePath,
		Stop:                stop,
	})
	if err != nil {
		return err
	}
	fmt.Printf("scenario      metropolis (%d cells x %d BU, diurnal day)\n", res.Cells, res.CapacityBU)
	fmt.Printf("controller    %s\n", res.ControllerName)
	if res.Mode == facs.MetroSharded {
		fmt.Printf("path          %s x%d\n", res.Mode, res.Shards)
	} else {
		fmt.Printf("path          %s\n", res.Mode)
	}
	fmt.Printf("waves         %d\n", res.Waves)
	fmt.Printf("requested     %d\n", res.Requested)
	fmt.Printf("accepted      %d (%.1f%%)\n", res.Accepted, res.AcceptedPct())
	fmt.Printf("handoffs      %d attempts, %d drops (%.2f%%), %d cross-shard\n",
		res.Handoffs, res.HandoffDropped, res.DropPct(), res.CrossShard)
	fmt.Printf("released      %d\n", res.Released)
	fmt.Printf("population    peak %d concurrent calls, final %d\n", res.PeakConcurrent, res.FinalActive)
	fmt.Printf("throughput    %.0f decisions/s (%d decisions in %v)\n",
		res.DecisionsPerSec(), res.Decisions(), res.Elapsed.Round(time.Millisecond))
	if res.Rebalances > 0 {
		fmt.Printf("rebalances    %d epochs (%d cells, %d calls moved)\n",
			res.Rebalances, res.Migrations, res.MigratedCalls)
	}
	if res.InterestScoped {
		fmt.Printf("ghost rows    %d fanned of %d all-to-all\n", res.GhostRows, res.GhostRowsAllToAll)
	}
	if res.Mode == facs.MetroSharded {
		f := res.FanOuts
		fmt.Printf("fan-outs      %d awake, %d woken, %d inline, %d taken back\n", f.Awake, f.Woken, f.Inline, f.TakenBack)
	}
	if res.Snapshots > 0 {
		fmt.Printf("snapshots     %d written to %s\n", res.Snapshots, o.snapshotDir)
	}
	if res.Stopped {
		fmt.Printf("stopped       interrupted after %d waves", res.Waves)
		if o.snapshotDir != "" {
			fmt.Printf(" (resume with -restore %s)", filepath.Join(o.snapshotDir, facs.MetroSnapshotFile))
		}
		fmt.Println()
	}
	if o.measureMem {
		fmt.Printf("memory        %.0f bytes/call at peak\n", res.BytesPerCall)
	}
	fmt.Printf("hash          %#016x\n", res.DecisionHash)
	return nil
}

func runMulti(o simOptions) error {
	factory, err := o.contestant()
	if err != nil {
		return err
	}
	cfg := facs.MultiCellConfig{
		NewController:  factory,
		NumRequests:    o.n,
		WindowSec:      o.window,
		MeanHoldingSec: o.holding,
		Seed:           o.seed,
	}
	if o.speed >= 0 {
		cfg.SpeedKmh = facs.Pin(o.speed)
	}
	results, err := facs.RunMultiCellSeeds(cfg, o.seeds(), o.workers)
	if err != nil {
		return err
	}
	res := results[0]
	fmt.Printf("scenario      multi cell (7 x %d BU, handoffs)\n", icell.DefaultCapacityBU)
	fmt.Printf("controller    %s\n", res.ControllerName)
	if o.reps > 1 {
		var accSum, dropSum float64
		for i, r := range results {
			fmt.Printf("rep %-3d seed=%-4d accepted %d/%d (%.1f%%), %d handoff drops (%.2f%%)\n",
				i+1, o.seed+int64(i), r.Accepted, r.Requested, r.AcceptedPct(), r.HandoffDrops, r.DropPct())
			accSum += r.AcceptedPct()
			dropSum += r.DropPct()
		}
		fmt.Printf("mean accepted %.1f%%, mean drop %.2f%% over %d replications\n",
			accSum/float64(len(results)), dropSum/float64(len(results)), len(results))
		return nil
	}
	fmt.Printf("requested     %d\n", res.Requested)
	fmt.Printf("accepted      %d (%.1f%%)\n", res.Accepted, res.AcceptedPct())
	fmt.Printf("handoffs      %d attempts, %d drops (%.2f%%)\n",
		res.HandoffAttempts, res.HandoffDrops, res.DropPct())
	fmt.Printf("completed     %d\n", res.Completed)
	fmt.Printf("utilization   mean %.1f%%\n", 100*res.Utilization.Mean())
	return nil
}
