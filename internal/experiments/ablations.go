package experiments

import (
	"fmt"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/facs"
	"facs/internal/fuzzy"
	"facs/internal/metrics"
)

// AblationDefuzzifier (A1) compares the defuzzification method on the
// single-cell scenario: centroid (paper default), weighted average
// (real-time fast path), bisector and mean-of-maxima.
func AblationDefuzzifier(fc FigureConfig) (Figure, error) {
	fc = fc.withDefaults()
	if err := fc.Validate(); err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "ablation-defuzzifier",
		Title:  "A1: defuzzifier choice vs acceptance (single cell, 30 km/h)",
		XLabel: "number of requesting connections",
		YLabel: "percentage of accepted calls",
	}
	methods := []struct {
		label string
		mk    func() fuzzy.Defuzzifier
	}{
		{"centroid", func() fuzzy.Defuzzifier { return fuzzy.Centroid{} }},
		{"weighted-average", func() fuzzy.Defuzzifier { return fuzzy.NewWeightedAverage() }},
		{"bisector", func() fuzzy.Defuzzifier { return fuzzy.Bisector{} }},
		{"mean-of-maxima", func() fuzzy.Defuzzifier { return fuzzy.MeanOfMaxima{} }},
	}
	for _, m := range methods {
		m := m
		ctrl, err := facs.New(facs.WithDefuzzifier(m.mk))
		if err != nil {
			return Figure{}, err
		}
		s, err := singleCellCurve(fc, m.label, func(cfg *SingleCellConfig) {
			cfg.Controller = ctrl
		})
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationThreshold (A2) sweeps the crisp accept threshold on the A/R
// axis: the decision boundary between the paper's soft grades.
func AblationThreshold(fc FigureConfig) (Figure, error) {
	fc = fc.withDefaults()
	if err := fc.Validate(); err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "ablation-threshold",
		Title:  "A2: accept-threshold sweep (single cell, 30 km/h)",
		XLabel: "number of requesting connections",
		YLabel: "percentage of accepted calls",
	}
	for _, th := range []float64{-0.25, 0, 0.25, 0.5} {
		ctrl, err := facs.New(facs.WithAcceptThreshold(th))
		if err != nil {
			return Figure{}, err
		}
		s, err := singleCellCurve(fc, fmt.Sprintf("threshold=%+.2f", th), func(cfg *SingleCellConfig) {
			cfg.Controller = ctrl
		})
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationSCC (A3) sweeps the SCC survivability threshold and horizon on
// the multi-cell scenario.
func AblationSCC(fc FigureConfig) (Figure, error) {
	fc = fc.withDefaults()
	if err := fc.Validate(); err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "ablation-scc",
		Title:  "A3: SCC survivability threshold and horizon sweep (multi cell)",
		XLabel: "number of requesting connections",
		YLabel: "percentage of accepted calls",
	}
	variants := []struct {
		label     string
		threshold float64
		horizon   int
	}{
		{"tau=0.70,K=6", 0.70, 6},
		{"tau=0.85,K=6", 0.85, 6},
		{"tau=1.00,K=6", 1.00, 6},
		{"tau=0.85,K=2", 0.85, 2},
		{"tau=0.85,K=12", 0.85, 12},
	}
	for _, v := range variants {
		curve, err := runMultiCellCurve(fc, v.label, MultiCellConfig{
			NewController: sccLedgerFactory(v.threshold, v.horizon),
		})
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, curve.series)
	}
	return fig, nil
}

// AblationBaselines (A4) runs the classical CAC schemes of the paper's
// introduction on the Fig. 10 workload alongside FACS and SCC.
func AblationBaselines(fc FigureConfig) (Figure, error) {
	fc = fc.withDefaults()
	if err := fc.Validate(); err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "ablation-baselines",
		Title:  "A4: classical baselines on the Fig. 10 workload",
		XLabel: "number of requesting connections",
		YLabel: "percentage of accepted calls",
	}
	schemes := []struct{ label, name string }{
		{"FACS", "facs"},
		{"SCC", "scc"},
		{"complete-sharing", "cs"},
		{"guard-channel(8)", "guard"},
		{"threshold(video<=10)", "threshold"},
	}
	for _, sc := range schemes {
		factory, err := fc.contestant(sc.name)
		if err != nil {
			return Figure{}, err
		}
		curve, err := runMultiCellCurve(fc, sc.label, MultiCellConfig{NewController: factory})
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, curve.series)
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("%s: mean handoff drop %.2f%%", sc.label, curve.meanDropPct))
	}
	return fig, nil
}

// AblationGPSNoise (A5) measures the sensitivity of the fuzzy prediction
// stage to GPS error, on the walking-speed series where estimation is
// hardest.
func AblationGPSNoise(fc FigureConfig) (Figure, error) {
	fc = fc.withDefaults()
	if err := fc.Validate(); err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "ablation-gps-noise",
		Title:  "A5: GPS noise sensitivity (single cell, 10 km/h users)",
		XLabel: "number of requesting connections",
		YLabel: "percentage of accepted calls",
	}
	for _, noise := range []float64{-1, 2, 5, 15, 30} {
		noise := noise
		label := fmt.Sprintf("sigma=%gm", noise)
		if noise < 0 {
			label = "no noise"
		}
		s, err := singleCellCurve(fc, label, func(cfg *SingleCellConfig) {
			cfg.SpeedKmh = Pin(10)
			cfg.GPSNoiseM = noise
		})
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AllAblations runs every ablation study in order.
func AllAblations(fc FigureConfig) ([]Figure, error) {
	builders := []func(FigureConfig) (Figure, error){
		AblationDefuzzifier,
		AblationThreshold,
		AblationSCC,
		AblationBaselines,
		AblationGPSNoise,
		AblationHandoffPriority,
		AblationQueueing,
	}
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

// AblationHandoffPriority (A6) implements the paper's stated future work:
// "we did not consider the priority of the ongoing calls and requesting
// connections". Handoffs are routed through the admission controller
// (HandoffControlled) and FACS is given an increasing handoff bias; the
// guard-channel baseline provides the classical reference point. The
// interesting output is the trade-off between new-call acceptance and the
// handoff drop rate, reported in the figure notes.
func AblationHandoffPriority(fc FigureConfig) (Figure, error) {
	fc = fc.withDefaults()
	if err := fc.Validate(); err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "ablation-handoff-priority",
		Title:  "A6: handoff priority (future work) - acceptance and drops",
		XLabel: "number of requesting connections",
		YLabel: "percentage of accepted calls",
	}
	guard, err := fc.contestant("guard")
	if err != nil {
		return Figure{}, err
	}
	schemes := []struct {
		label   string
		factory func(*cell.Network) (cac.Controller, error)
	}{
		{"facs bias=0", func(*cell.Network) (cac.Controller, error) {
			return facs.New(facs.WithHandoffBias(0))
		}},
		{"facs bias=0.5", func(*cell.Network) (cac.Controller, error) {
			return facs.New(facs.WithHandoffBias(0.5))
		}},
		{"facs bias=1", func(*cell.Network) (cac.Controller, error) {
			return facs.New(facs.WithHandoffBias(1))
		}},
		{"guard-channel(8)", guard},
	}
	for _, sc := range schemes {
		curve, err := runMultiCellCurve(fc, sc.label, MultiCellConfig{
			NewController: sc.factory,
			WindowSec:     80, // heavier than Fig. 10 so drops occur
			HandoffPolicy: HandoffControlled,
		})
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, curve.series)
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("%s: mean handoff drop %.2f%%", sc.label, curve.meanDropPct))
	}
	return fig, nil
}

// AblationQueueing (A7) exercises the queueing extension motivated by the
// paper's introduction ("data traffic is queue-able and a certain amount
// of delay can be acceptable"): text requests graded NRNA wait for
// released bandwidth instead of being rejected outright.
func AblationQueueing(fc FigureConfig) (Figure, error) {
	fc = fc.withDefaults()
	if err := fc.Validate(); err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "ablation-queueing",
		Title:  "A7: NRNA text queueing (single cell, 30 km/h)",
		XLabel: "number of requesting connections",
		YLabel: "percentage of accepted calls",
	}
	variants := []struct {
		label   string
		queue   bool
		waitSec float64
	}{
		{"no queue", false, 0},
		{"queue 15s", true, 15},
		{"queue 60s", true, 60},
	}
	newFACS, err := fc.contestant("facs")
	if err != nil {
		return Figure{}, err
	}
	ctrl, err := newFACS(nil)
	if err != nil {
		return Figure{}, err
	}
	for _, v := range variants {
		v := v
		grid, err := replicate(fc, func(n int, seed int64) (SingleCellResult, error) {
			cfg := SingleCellConfig{
				Controller:        ctrl,
				NumRequests:       n,
				QueueTextRequests: v.queue,
				MaxQueueWaitSec:   v.waitSec,
				Seed:              seed,
			}
			if !v.queue {
				cfg.MaxQueueWaitSec = 0 // use the default; ignored
			}
			return RunSingleCell(cfg)
		})
		if err != nil {
			return Figure{}, err
		}
		series := metrics.Series{Label: v.label}
		var queued, queuedAccepted int
		var waitSum float64
		var waitRuns int
		for pi, n := range fc.LoadPoints {
			var acc float64
			for _, res := range grid[pi] {
				acc += res.AcceptedPct()
				queued += res.Queued
				queuedAccepted += res.QueuedAccepted
				if res.QueueWait.Count() > 0 {
					waitSum += res.QueueWait.Mean()
					waitRuns++
				}
			}
			series.Append(float64(n), acc/float64(len(fc.Seeds)))
		}
		fig.Series = append(fig.Series, series)
		note := fmt.Sprintf("%s: %d queued, %d admitted after waiting", v.label, queued, queuedAccepted)
		if waitRuns > 0 {
			note += fmt.Sprintf(", mean wait %.1fs", waitSum/float64(waitRuns))
		}
		fig.Notes = append(fig.Notes, note)
	}
	return fig, nil
}
