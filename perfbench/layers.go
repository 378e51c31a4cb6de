package main

import (
	"fmt"
	"io"
	"time"

	"facs/internal/experiments"
	"facs/internal/facs"
)

// tracePairs is how many untraced/traced run pairs the tracing overhead
// is the median difference of.
const tracePairs = 2

// measureLayers makes the traced run of workload w: alternating untraced
// and span-traced one-day runs of the workload itself, then the rung
// ladder over a captured inline run.
func measureLayers(w workload, seed int64, spansPath string, log io.Writer) (report, error) {
	rep := report{Correct: true}
	check := func(what string, err error) {
		if err != nil {
			rep.Correct = false
			fmt.Fprintf(log, "FAIL %s: %v\n", what, err)
		}
	}
	// The surface rung and the FACS probe need compiled surfaces on every
	// workload.
	compiled, err := facs.NewCompiled(0)
	if err != nil {
		return rep, fmt.Errorf("compiling the FACS surfaces: %w", err)
	}
	newCtrl := newController(w.controller, compiled)

	var plain, traced []float64
	var base experiments.MetropolisResult
	var tr *tracer
	for i := 0; i < tracePairs; i++ {
		res, err := experiments.RunMetropolis(w.config(seed, 1, newCtrl))
		if err != nil {
			return rep, fmt.Errorf("untraced run: %w", err)
		}
		rep.Attempted += operations(res)
		if i == 0 {
			base = res
			fmt.Fprintf(log, "one-day outcome: %v\n", outcomeOf(res))
			check("one-day run", w.checkRun(res, seed, 1))
		}
		plain = append(plain, float64(res.Elapsed))

		tr = newTracer()
		var tres experiments.MetropolisResult
		err = tr.run(func() (err error) {
			tres, err = experiments.RunMetropolis(w.config(seed, 1, tr.factory(newCtrl)))
			return err
		})
		if err != nil {
			return rep, fmt.Errorf("traced run: %w", err)
		}
		rep.Attempted += operations(tres)
		if tres.DecisionHash != res.DecisionHash {
			check("traced run", fmt.Errorf("traced hash %#x, untraced %#x", tres.DecisionHash, res.DecisionHash))
		}
		traced = append(traced, float64(tres.Elapsed))
	}
	spans := tr.spans()
	if spansPath != "" {
		if err := writeSpans(spansPath, spans); err != nil {
			return rep, fmt.Errorf("writing spans: %w", err)
		}
	}
	lt := selfTimes(spans)

	s, captured, err := capture(w, seed, newCtrl)
	if err != nil {
		return rep, err
	}
	rep.Attempted += operations(captured)
	if w.cellLocal() && captured.DecisionHash != base.DecisionHash {
		check("capture", fmt.Errorf("inline hash %#x, %v hash %#x", captured.DecisionHash, w.mode, base.DecisionHash))
	}
	lad, err := runLadder(w, s, compiled, newCtrl, seed, log)
	if err != nil {
		return rep, err
	}
	rep.Attempted += lad.ops

	n := float64(lad.decisions)
	top := lad.cellNs
	if w.mode == experiments.MetroSharded {
		top = lad.shardNs
	}
	sh, in, st := lad.shard, lad.inline, lad.serveStats
	fmt.Fprintf(log, "ladder: %d decisions, %d surface lookups (%d verdicts checked), %d exact fallbacks timed, SCC shadowed %d decisions; shard rung: %d outcomes differ from the capture, %d handoffs skipped\n",
		lad.decisions, lad.lookups, lad.surfaceChecked, lad.exactSamples, lad.scc.decided, lad.shardMismatches, sh.skipped)
	values := map[string]float64{
		"rung.surface_ns":         lad.surfaceNs / n,
		"rung.controller_ns":      lad.controllerNs / n,
		"rung.dispatch_ns":        lad.dispatchNs / n,
		"rung.cell_ns":            lad.cellNs / n,
		"rung.serve_ns":           lad.serveNs / n,
		"rung.shard_ns":           lad.shardNs / n,
		"rung.metro_ns":           lad.metroNs / n,
		"fuzzy.flc1_ns":           lad.flc1Ns / float64(lad.lookups),
		"fuzzy.flc2_ns":           lad.flc2Ns / float64(lad.lookups),
		"facs.decide_ns":          ratio(float64(lad.facs.decideNs), float64(lad.facs.decided)),
		"facs.fallback_ratio":     ratio(float64(lad.facs.exact), float64(lad.facs.fast+lad.facs.exact)),
		"facs.exact_ns":           lad.exactNs,
		"scc.decide_ns":           ratio(float64(lad.scc.decideNs), float64(lad.scc.decided)),
		"scc.fallback_ratio":      ratio(float64(lad.scc.ledger.Snapshot().ExactFallbacks), float64(lad.scc.decided)),
		"scc.observe_ns":          ratio(float64(lad.scc.observeNs), float64(lad.scc.observed)),
		"scc.tick_us":             ratio(float64(lad.scc.tickNs), float64(lad.scc.ticks)) / 1e3,
		"scc.ghost_rows":          ratio(float64(lad.scc.rows), float64(lad.scc.exports)),
		"cac.dispatch_ns":         (lad.dispatchNs - lad.controllerNs) / n,
		"cell.admit_ns":           ratio(float64(in.admitNs), float64(in.admits)),
		"cell.release_ns":         ratio(float64(in.releaseNs), float64(in.releaseCalls)),
		"serve.wave_ns":           (lad.serveNs - lad.cellNs) / n,
		"serve.batch_mean":        st.AvgBatch(),
		"serve.queue_p50_us":      float64(st.P50Latency()) / float64(time.Microsecond),
		"serve.queue_p99_us":      float64(st.P99Latency()) / float64(time.Microsecond),
		"shard.wave_ns":           (lad.shardNs - lad.serveNs) / n,
		"shard.handoff_us":        ratio(float64(sh.handoffNs), float64(sh.handoffs)) / 1e3,
		"shard.cross_shard_ratio": ratio(float64(sh.cross), float64(sh.handoffs)),
		"shard.tick_us":           ratio(float64(sh.tickNs), float64(sh.ticks)) / 1e3,
		"metro.driver_ns":         median(plain)/float64(base.Decisions()) - top/n,
		"trace.overhead_pct":      100 * (median(traced) - median(plain)) / median(plain),
		"trace.ctrl_ns":           ratio(float64(lt.self[spanDecide]), float64(lt.items[spanDecide])),
		"trace.outside_ctrl_ns":   float64(lt.self[spanRun]) / float64(base.Decisions()),
		"trace.spans":             float64(len(spans)),
	}
	return rep, rep.fill(perLayerMetrics, values)
}
