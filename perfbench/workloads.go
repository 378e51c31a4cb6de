package main

import (
	"fmt"
	"strings"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/experiments"
	"facs/internal/facs"
	"facs/internal/scc"
	"facs/internal/shard"
)

// Every workload runs at the paper's station capacity. FLC2's counter
// input Cs spans [0, 40] BU, so at 40 BU the controllers work across the
// whole counter universe and blocking and dropping actually trade off;
// the thousands of BU per station behind the older metropolis bench
// files pin Cs at full and leave every controller all-accept or
// all-reject.
const (
	capacityBU     = 40
	cellRadiusM    = 500
	guardBU        = 8
	wavesPerDay    = 96
	tickEveryWaves = 4
	maxBatch       = 256
	// defaultSeed is the seed whose one-day outcomes golden.go pins.
	defaultSeed = 1
)

// controllerKind names an admission controller family.
type controllerKind string

const (
	guardCtrl controllerKind = "guard"
	facsCtrl  controllerKind = "facs"
	sccCtrl   controllerKind = "scc"
)

// ctrlFactory builds the controller for one shard view.
type ctrlFactory = func(shard.View) (cac.Controller, error)

// workload is one benchmark scenario: a metropolis deployment, the
// controller deciding it and the engine carrying it.
type workload struct {
	name       string
	controller controllerKind
	mode       experiments.MetropolisMode
	shards     int
	rings      int
	target     int
	// daysPerRep is the simulated length of one timed repetition.
	daysPerRep int
	// acceptPct and dropPct bound the contested regime: new-call
	// acceptance and handoff dropping must stay inside them on every
	// seed, so a workload that drifts to all-accept or all-reject fails.
	acceptPct, dropPct [2]float64
}

// workloads are the benchmark's scenarios. Each stresses a different
// part of the stack; README.md records the regime each was chosen for.
var workloads = []workload{
	{
		// Guard channel decides in O(1), so the time goes to shard
		// routing, barriers and the handoff protocol, serve waves,
		// station commit/release and the metropolis wave loop; fuzzy, facs and scc do
		// no work.
		name: "city-guard", controller: guardCtrl,
		mode: experiments.MetroSharded, shards: 2,
		rings: 18, target: 10000, daysPerRep: 8,
		acceptPct: [2]float64{80, 98}, dropPct: [2]float64{0, 3},
	},
	{
		// Compiled FACS inline, with no serve or shard layer: a change
		// to fuzzy or facs shows undiluted.
		name: "city-facs", controller: facsCtrl,
		mode: experiments.MetroBatch, shards: 1,
		rings: 18, target: 10000, daysPerRep: 4,
		acceptPct: [2]float64{50, 80}, dropPct: [2]float64{15, 40},
	},
	{
		// The SCC demand ledger is the only stateful controller that is
		// not cell-local: ledger writes beside reads, tick rebuilds and
		// the ghost exchange inside shard Tick barriers. 127 cells,
		// because its per-decision cost grows faster than linearly with
		// the cell count.
		name: "district-scc", controller: sccCtrl,
		mode: experiments.MetroSharded, shards: 2,
		rings: 6, target: 1300, daysPerRep: 6,
		acceptPct: [2]float64{50, 85}, dropPct: [2]float64{15, 45},
	},
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

// config is the workload's metropolis configuration for a run of the
// given number of simulated days.
func (w workload) config(seed int64, days int, newCtrl ctrlFactory) experiments.MetropolisConfig {
	return experiments.MetropolisConfig{
		NewController:  newCtrl,
		Mode:           w.mode,
		Shards:         w.shards,
		Rings:          w.rings,
		CellRadiusM:    cellRadiusM,
		CapacityBU:     capacityBU,
		TargetCalls:    w.target,
		Waves:          days * wavesPerDay,
		WavesPerDay:    wavesPerDay,
		TickEveryWaves: tickEveryWaves,
		MaxBatch:       maxBatch,
		Seed:           seed,
	}
}

// batchConfig is config on the inline MetroBatch engine.
func (w workload) batchConfig(seed int64, days int, newCtrl ctrlFactory) experiments.MetropolisConfig {
	cfg := w.config(seed, days, newCtrl)
	cfg.Mode, cfg.Shards = experiments.MetroBatch, 1
	return cfg
}

// network builds a fresh deployment identical to the one RunMetropolis
// builds for the workload.
func (w workload) network() (*cell.Network, error) {
	return cell.NewNetwork(cell.NetworkConfig{Rings: w.rings, CellRadiusM: cellRadiusM, CapacityBU: capacityBU})
}

// cellLocal reports whether the workload's outcomes are the same on
// every engine and shard count.
func (w workload) cellLocal() bool { return w.controller != sccCtrl }

// newController returns the factory for a controller family. compiled
// is the shared FACS controller, used only by facsCtrl.
func newController(kind controllerKind, compiled *facs.CompiledController) ctrlFactory {
	switch kind {
	case facsCtrl:
		return func(shard.View) (cac.Controller, error) { return compiled, nil }
	case sccCtrl:
		return func(v shard.View) (cac.Controller, error) {
			l, err := newLedger(v.Network())
			if err != nil {
				return nil, err
			}
			return l, nil
		}
	default:
		return func(shard.View) (cac.Controller, error) { return cac.NewGuardChannel(guardBU) }
	}
}

// newLedger builds the SCC demand ledger the way facs-sim does.
func newLedger(net *cell.Network) (*scc.Ledger, error) {
	return scc.NewLedger(scc.Config{
		Network:                net,
		Reservation:            scc.ReservationFull,
		RequireClusterCoverage: true,
	})
}

// outcome is the part of a metropolis run that must repeat exactly.
type outcome struct {
	hash                                   uint64
	requested, accepted, handoffs, dropped int
}

func outcomeOf(r experiments.MetropolisResult) outcome {
	return outcome{r.DecisionHash, r.Requested, r.Accepted, r.Handoffs, r.HandoffDropped}
}

func (o outcome) String() string {
	return fmt.Sprintf("hash %#016x, %d requested, %d accepted, %d handoffs, %d dropped",
		o.hash, o.requested, o.accepted, o.handoffs, o.dropped)
}

// checkRun verifies one metropolis run of the workload: the contested
// regime always, and the golden outcome for a one-day run at the default
// seed.
func (w workload) checkRun(r experiments.MetropolisResult, seed int64, days int) error {
	if a := r.AcceptedPct(); a < w.acceptPct[0] || a > w.acceptPct[1] {
		return fmt.Errorf("new-call acceptance %.2f%% is outside the contested band [%g, %g]",
			a, w.acceptPct[0], w.acceptPct[1])
	}
	if d := r.DropPct(); d < w.dropPct[0] || d > w.dropPct[1] {
		return fmt.Errorf("handoff dropping %.2f%% is outside the contested band [%g, %g]",
			d, w.dropPct[0], w.dropPct[1])
	}
	want, ok := goldens[w.name]
	if !ok || seed != defaultSeed || days != 1 {
		return nil
	}
	if got := outcomeOf(r); got != want {
		return fmt.Errorf("one-day outcome (%v) differs from the golden (%v)", got, want)
	}
	return nil
}

// operations counts what a run attempted: decisions (new calls and
// handoffs), releases and tick barriers.
func operations(r experiments.MetropolisResult) int64 {
	ticks := 0
	if r.Waves > 0 {
		ticks = (r.Waves - 1) / tickEveryWaves
	}
	return int64(r.Decisions() + r.Released + ticks)
}
