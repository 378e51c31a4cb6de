package experiments

import (
	"fmt"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/facs"
	"facs/internal/metrics"
)

// Figure is one regenerated paper artifact: a set of labelled series over
// the "number of requesting connections" axis, plus free-form notes
// (secondary metrics such as handoff drop rates).
type Figure struct {
	// ID is the artifact key, e.g. "fig7".
	ID string
	// Title restates the paper caption.
	Title string
	// XLabel / YLabel name the axes.
	XLabel string
	YLabel string
	// Series holds one curve per parameter value (or per controller).
	Series []metrics.Series
	// Notes records secondary observations (drop rates, utilization).
	Notes []string
}

// FigureConfig controls a figure regeneration run.
type FigureConfig struct {
	// LoadPoints lists the x-axis values. Default 10, 20, ..., 100.
	LoadPoints []int
	// Seeds lists the replication seeds; reported curves are the means
	// across seeds. Default {1, 2, 3, 4, 5}.
	Seeds []int64
	// Workers is the size of the worker pool the independent
	// (load point, seed) replications are sharded across. Zero selects
	// DefaultWorkers (one per CPU); results are identical for every
	// worker count.
	Workers int
}

func (c FigureConfig) withDefaults() FigureConfig {
	if len(c.LoadPoints) == 0 {
		c.LoadPoints = []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3, 4, 5}
	}
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers()
	}
	return c
}

// contestant returns the catalogue factory a figure runs under name:
// the exact FACS at the default threshold, and the guard channel
// reserving 8 BU.
func contestant(name string) (func(*cell.Network) (cac.Controller, error), error) {
	return Contestant{
		Name:            name,
		GuardBU:         8,
		AcceptThreshold: facs.DefaultAcceptThreshold,
	}.Factory()
}

// Validate checks the configuration.
func (c FigureConfig) Validate() error {
	for _, n := range c.LoadPoints {
		if n <= 0 {
			return fmt.Errorf("experiments: load point %d must be > 0", n)
		}
	}
	return nil
}

// singleCellCurve runs the single-cell scenario across the load points
// on the worker pool, averaging acceptance over the seeds. The base
// controller is built once and shared by every replication; mutate may
// override it per configuration.
func singleCellCurve(fc FigureConfig, label string, mutate func(*SingleCellConfig)) (metrics.Series, error) {
	newFACS, err := contestant("facs")
	if err != nil {
		return metrics.Series{}, err
	}
	ctrl, err := newFACS(nil)
	if err != nil {
		return metrics.Series{}, err
	}
	grid, err := replicate(fc, func(n int, seed int64) (SingleCellResult, error) {
		cfg := SingleCellConfig{
			Controller:  ctrl,
			NumRequests: n,
			Seed:        seed,
		}
		mutate(&cfg)
		return RunSingleCell(cfg)
	})
	if err != nil {
		return metrics.Series{}, fmt.Errorf("experiments: %s: %w", label, err)
	}
	series := metrics.Series{Label: label}
	for pi, n := range fc.LoadPoints {
		var acc float64
		for _, res := range grid[pi] {
			acc += res.AcceptedPct()
		}
		series.Append(float64(n), acc/float64(len(fc.Seeds)))
	}
	return series, nil
}

// multiCellCurve is one multi-cell contestant's acceptance curve, with
// its handoff drop and utilisation percentages averaged over every
// (load point, seed) run.
type multiCellCurve struct {
	series               metrics.Series
	meanDropPct, utilPct float64
}

// runMultiCellCurve runs the multi-cell scenario for every (load point,
// seed) pair on the worker pool and averages acceptance per load point
// into a series labelled label.
func runMultiCellCurve(fc FigureConfig, label string, base MultiCellConfig) (multiCellCurve, error) {
	grid, err := replicate(fc, func(n int, seed int64) (MultiCellResult, error) {
		cfg := base
		cfg.NumRequests = n
		cfg.Seed = seed
		return RunMultiCell(cfg)
	})
	if err != nil {
		return multiCellCurve{}, fmt.Errorf("experiments: %s: %w", label, err)
	}
	out := multiCellCurve{series: metrics.Series{Label: label}}
	var dropSum, utilSum float64
	var runs int
	for pi, n := range fc.LoadPoints {
		var acc float64
		for _, res := range grid[pi] {
			acc += res.AcceptedPct()
			dropSum += res.DropPct()
			utilSum += res.Utilization.Mean()
			runs++
		}
		out.series.Append(float64(n), acc/float64(len(fc.Seeds)))
	}
	out.meanDropPct = dropSum / float64(runs)
	out.utilPct = 100 * utilSum / float64(runs)
	return out, nil
}

// Figure7 regenerates paper Fig. 7: percentage of accepted calls versus
// number of requesting connections for user speeds 4, 10, 30 and 60 km/h.
func Figure7(fc FigureConfig) (Figure, error) {
	fc = fc.withDefaults()
	if err := fc.Validate(); err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "fig7",
		Title:  "Fig. 7: accepted calls vs requesting connections, by user speed",
		XLabel: "number of requesting connections",
		YLabel: "percentage of accepted calls",
	}
	for _, speed := range []float64{4, 10, 30, 60} {
		speed := speed
		s, err := singleCellCurve(fc, fmt.Sprintf("%gkm/h", speed), func(cfg *SingleCellConfig) {
			cfg.SpeedKmh = Pin(speed)
		})
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure8 regenerates paper Fig. 8: percentage of accepted calls versus
// number of requesting connections for user angles 0..90 degrees
// (deviation from heading straight at the base station), at 30 km/h.
func Figure8(fc FigureConfig) (Figure, error) {
	fc = fc.withDefaults()
	if err := fc.Validate(); err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "fig8",
		Title:  "Fig. 8: accepted calls vs requesting connections, by user angle",
		XLabel: "number of requesting connections",
		YLabel: "percentage of accepted calls",
	}
	for _, angle := range []float64{0, 30, 50, 60, 90} {
		angle := angle
		s, err := singleCellCurve(fc, fmt.Sprintf("angle=%g", angle), func(cfg *SingleCellConfig) {
			cfg.AngleOffsetDeg = Pin(angle)
		})
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure9 regenerates paper Fig. 9: percentage of accepted calls versus
// number of requesting connections for user-BS distances 1, 3, 7 and
// 10 km, at 30 km/h.
func Figure9(fc FigureConfig) (Figure, error) {
	fc = fc.withDefaults()
	if err := fc.Validate(); err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "fig9",
		Title:  "Fig. 9: accepted calls vs requesting connections, by distance",
		XLabel: "number of requesting connections",
		YLabel: "percentage of accepted calls",
	}
	for _, dist := range []float64{1, 3, 7, 10} {
		dist := dist
		s, err := singleCellCurve(fc, fmt.Sprintf("%gkm", dist), func(cfg *SingleCellConfig) {
			cfg.DistanceKm = Pin(dist)
		})
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure10 regenerates paper Fig. 10: FACS versus SCC on the multi-cell
// scenario. Secondary QoS metrics (handoff drops, utilization) are
// reported in the figure notes.
func Figure10(fc FigureConfig) (Figure, error) {
	fc = fc.withDefaults()
	if err := fc.Validate(); err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "fig10",
		Title:  "Fig. 10: FACS vs SCC, accepted calls vs requesting connections",
		XLabel: "number of requesting connections",
		YLabel: "percentage of accepted calls",
	}
	for _, sc := range []struct{ label, name string }{{"FACS", "facs"}, {"SCC", "scc"}} {
		factory, err := contestant(sc.name)
		if err != nil {
			return Figure{}, err
		}
		curve, err := runMultiCellCurve(fc, sc.label, MultiCellConfig{NewController: factory})
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, curve.series)
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s: mean handoff drop %.2f%%, mean utilization %.1f%% across all runs",
			sc.label, curve.meanDropPct, curve.utilPct))
	}
	return fig, nil
}

// AllFigures regenerates every result figure of the paper in order.
func AllFigures(fc FigureConfig) ([]Figure, error) {
	builders := []func(FigureConfig) (Figure, error){Figure7, Figure8, Figure9, Figure10}
	out := make([]Figure, 0, len(builders))
	for _, build := range builders {
		fig, err := build(fc)
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}
