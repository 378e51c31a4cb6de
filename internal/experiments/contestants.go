package experiments

import (
	"fmt"
	"strings"
	"time"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/facs"
	"facs/internal/scc"
	"facs/internal/traffic"
)

// This file is the contestant catalogue: the one place a controller
// name becomes a controller, for both binaries, the figures and the
// ablations.

// ContestantNames lists the catalogue's controller names.
var ContestantNames = []string{"facs", "scc", "cs", "guard", "threshold"}

// Contestant selects one catalogue controller. Its fields carry the
// binaries' -controller, -guard, -accept-threshold and -compiled
// values.
type Contestant struct {
	// Name is one of ContestantNames.
	Name string
	// GuardBU is the bandwidth the guard channel reserves for handoffs.
	GuardBU int
	// AcceptThreshold is the FACS crisp accept threshold.
	AcceptThreshold float64
	// Compiled selects the compiled FACS fast path at the default grid.
	// Factory refuses it for other names; its errors name the binaries'
	// flags.
	Compiled bool
	// Log, when set, receives the compiled build's progress and timing
	// lines.
	Log func(string)
}

// Factory returns the constructor of c's controller. FACS is built
// here once and shared by every network: it is safe for concurrent use,
// and a compiled build shares the FLC1 cells its decisions enclose. SCC builds a
// fresh demand ledger per network. Every contestant but SCC ignores
// the network, so single-cell callers pass nil.
func (c Contestant) Factory() (func(*cell.Network) (cac.Controller, error), error) {
	if c.Compiled && c.Name != "facs" {
		return nil, fmt.Errorf("-compiled applies to -controller facs, got %q", c.Name)
	}
	switch c.Name {
	case "facs":
		ctrl, err := c.buildFACS()
		if err != nil {
			return nil, err
		}
		return func(*cell.Network) (cac.Controller, error) { return ctrl, nil }, nil
	case "scc":
		return SCCFactory(), nil
	case "cs":
		return func(*cell.Network) (cac.Controller, error) { return cac.CompleteSharing{}, nil }, nil
	case "guard":
		return func(*cell.Network) (cac.Controller, error) { return cac.NewGuardChannel(c.GuardBU) }, nil
	case "threshold":
		return func(*cell.Network) (cac.Controller, error) {
			return cac.NewThresholdPolicy(map[traffic.Class]int{traffic.Video: 10})
		}, nil
	}
	return nil, fmt.Errorf("unknown controller %q (valid: %s)", c.Name, strings.Join(ContestantNames, ", "))
}

// buildFACS builds the exact FACS, or with Compiled the compiled fast
// path: the process-wide facs.DefaultCompiled for the default
// threshold, or a dedicated compile otherwise.
func (c Contestant) buildFACS() (cac.Controller, error) {
	opt := facs.WithAcceptThreshold(c.AcceptThreshold)
	if !c.Compiled {
		return facs.New(opt)
	}
	logf := func(format string, args ...any) {
		if c.Log != nil {
			c.Log(fmt.Sprintf(format, args...))
		}
	}
	start := time.Now() //facs:wallclock build timing for the log only
	logf("compiling FACS surfaces...")
	var (
		ctrl *facs.CompiledController
		err  error
	)
	if c.AcceptThreshold == facs.DefaultAcceptThreshold {
		ctrl, err = facs.DefaultCompiled()
	} else {
		ctrl, err = facs.NewCompiled(0, opt)
	}
	if err != nil {
		return nil, err
	}
	logf("compiled in %v", time.Since(start).Round(time.Millisecond)) //facs:wallclock build timing for the log only
	return ctrl, nil
}

// FACSFactory builds the default FACS controller for a multi-cell run.
func FACSFactory() func(*cell.Network) (cac.Controller, error) {
	return func(*cell.Network) (cac.Controller, error) { return facs.New() }
}

// sccFig10Config is the Fig. 10 SCC parameterisation: SCC's
// full-bandwidth reservation over the shadow cluster plus the
// cluster-coverage (path survivability) requirement, per
// internal/scc/DESIGN.md.
func sccFig10Config(net *cell.Network) scc.Config {
	return scc.Config{
		Network:                net,
		RequireClusterCoverage: true,
	}
}

// sccLedgerFactory builds the Fig. 10 SCC baseline on the demand
// ledger at survivability threshold tau and a horizon of K intervals
// (zero selects the scc defaults, 0.85 and 6).
func sccLedgerFactory(tau float64, horizon int) func(*cell.Network) (cac.Controller, error) {
	return func(net *cell.Network) (cac.Controller, error) {
		cfg := sccFig10Config(net)
		cfg.Threshold, cfg.Horizon = tau, horizon
		return scc.NewLedger(cfg)
	}
}

// SCCFactory builds the Fig. 10 SCC baseline on the incrementally
// maintained demand ledger (scc.Ledger): decisions are byte-identical
// to the recompute Controller's, at O(horizon x cluster-cells) per
// decision instead of O(active x horizon x stations).
func SCCFactory() func(*cell.Network) (cac.Controller, error) { return sccLedgerFactory(0, 0) }

// SCCRecomputeFactory builds the same baseline on the original
// recompute-on-query Controller — the reference oracle the
// golden-equivalence suite holds the ledger against.
func SCCRecomputeFactory() func(*cell.Network) (cac.Controller, error) {
	return func(net *cell.Network) (cac.Controller, error) {
		return scc.New(sccFig10Config(net))
	}
}
