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
// binaries' -controller, -guard, -accept-threshold, -compiled, -grid
// and -surface-cache values.
type Contestant struct {
	// Name is one of ContestantNames.
	Name string
	// GuardBU is the bandwidth the guard channel reserves for handoffs.
	GuardBU int
	// AcceptThreshold is the FACS crisp accept threshold.
	AcceptThreshold float64
	// Compiled selects the lookup-table FACS fast path at Grid points
	// per axis (0 = default); SurfaceCache, which implies Compiled,
	// loads persisted surfaces from that directory instead of
	// compiling. Factory refuses them for other names, and a Grid
	// without a compiled build; its errors name the binaries' flags.
	Compiled     bool
	Grid         int
	SurfaceCache string
	// Log, when set, receives the compiled build's progress and timing
	// lines.
	Log func(string)
}

// Factory returns the constructor of c's controller. FACS is built
// here once and shared by every network: it is stateless and safe for
// concurrent use, and a compiled build is a one-off compile. SCC builds a
// fresh demand ledger per network. Every contestant but SCC ignores
// the network, so single-cell callers pass nil.
func (c Contestant) Factory() (func(*cell.Network) (cac.Controller, error), error) {
	compiled := c.Compiled || c.SurfaceCache != ""
	if compiled && c.Name != "facs" {
		return nil, fmt.Errorf("-compiled applies to -controller facs, got %q", c.Name)
	}
	if c.Grid != 0 && !compiled {
		return nil, fmt.Errorf("-grid applies to -compiled runs")
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

// buildFACS builds the exact FACS, or with Compiled or SurfaceCache the
// compiled fast path: loaded from (or compiled into) the cache
// directory, the process-wide facs.DefaultCompiled for the default
// threshold and grid, or a dedicated compile otherwise.
func (c Contestant) buildFACS() (cac.Controller, error) {
	opt := facs.WithAcceptThreshold(c.AcceptThreshold)
	if !c.Compiled && c.SurfaceCache == "" {
		return facs.New(opt)
	}
	logf := func(format string, args ...any) {
		if c.Log != nil {
			c.Log(fmt.Sprintf(format, args...))
		}
	}
	start := time.Now()                                                                  //facs:wallclock build timing for the log only
	elapsed := func() time.Duration { return time.Since(start).Round(time.Millisecond) } //facs:wallclock build timing for the log only
	if c.SurfaceCache != "" {
		ctrl, info, err := facs.NewCompiledCached(c.Grid, c.SurfaceCache, opt)
		if err != nil {
			// A compiled controller alongside the error means only the
			// cache write failed (e.g. read-only directory): degrade to
			// plain compilation instead of discarding the work.
			if ctrl == nil {
				return nil, err
			}
			logf("warning: %v", err)
		}
		logf("surface cache %s in %v", info, elapsed())
		return ctrl, nil
	}
	logf("compiling FACS surfaces (no cache)...")
	var (
		ctrl *facs.CompiledController
		err  error
	)
	if c.AcceptThreshold == facs.DefaultAcceptThreshold && c.Grid == 0 {
		ctrl, err = facs.DefaultCompiled()
	} else {
		ctrl, err = facs.NewCompiled(c.Grid, opt)
	}
	if err != nil {
		return nil, err
	}
	logf("compiled in %v", elapsed())
	return ctrl, nil
}

// FACSFactory builds the default FACS controller for a multi-cell run.
func FACSFactory() func(*cell.Network) (cac.Controller, error) {
	return func(*cell.Network) (cac.Controller, error) { return facs.New() }
}

// sccFig10Config is the Fig. 10 SCC parameterisation: full-bandwidth
// reservation over the shadow cluster plus the cluster-coverage (path
// survivability) requirement, per internal/scc/DESIGN.md.
func sccFig10Config(net *cell.Network) scc.Config {
	return scc.Config{
		Network:                net,
		Reservation:            scc.ReservationFull,
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
