package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are measured with tracing off, on every workload.
var endToEndMetrics = []metricDef{
	// New-call plus handoff decisions per wall second of the wave loop,
	// median over the timed repetitions.
	{"decisions_per_s", "1/s"},
	// A cold FACS surface compile (no surface cache), plus building the
	// network, engine and controllers.
	{"setup_s", "s"},
	// Live heap per concurrent call at the population peak, from a run of
	// its own.
	{"bytes_per_call", "B"},
}

// perLayerMetrics come from the traced run. Rung totals are per decision
// of the captured stream; layer metrics are per call of that layer.
var perLayerMetrics = []metricDef{
	{"rung.surface_ns", "ns"},
	{"rung.controller_ns", "ns"},
	{"rung.dispatch_ns", "ns"},
	{"rung.cell_ns", "ns"},
	{"rung.serve_ns", "ns"},
	{"rung.shard_ns", "ns"},
	{"rung.metro_ns", "ns"},
	{"fuzzy.flc1_ns", "ns"},
	{"fuzzy.flc2_ns", "ns"},
	{"facs.decide_ns", "ns"},
	{"facs.fallback_ratio", "ratio"},
	{"facs.exact_ns", "ns"},
	{"scc.decide_ns", "ns"},
	{"scc.fallback_ratio", "ratio"},
	{"scc.observe_ns", "ns"},
	{"scc.tick_us", "us"},
	{"scc.ghost_rows", "count"},
	{"cac.dispatch_ns", "ns"},
	{"cell.admit_ns", "ns"},
	{"cell.release_ns", "ns"},
	{"serve.wave_ns", "ns"},
	{"serve.batch_mean", "count"},
	{"serve.queue_p50_us", "us"},
	{"serve.queue_p99_us", "us"},
	{"shard.wave_ns", "ns"},
	{"shard.handoff_us", "us"},
	{"shard.cross_shard_ratio", "ratio"},
	{"shard.tick_us", "us"},
	{"metro.driver_ns", "ns"},
	{"trace.overhead_pct", "%"},
	{"trace.ctrl_ns", "ns"},
	{"trace.outside_ctrl_ns", "ns"},
	{"trace.spans", "count"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill sets the report's metrics from values, which must hold exactly
// the names in defs, each a finite number.
func (r *report) fill(defs []metricDef, values map[string]float64) error {
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a finite number", d.name)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(values), len(defs))
	}
	return nil
}

// print writes one line per metric: name, value, unit.
func (r *report) print(out io.Writer, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(out, "%-24s %18.6f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
