package main

import (
	"fmt"
	"io"
	"time"

	"facs/internal/experiments"
	"facs/internal/facs"
)

const (
	// minRepetitions is the fewest timed repetitions a run makes,
	// whatever its budget.
	minRepetitions = 3
	// compileSamples is how many cold FACS surface compilations the
	// set-up median is taken over.
	compileSamples = 3
)

// measureEndToEnd runs workload w untraced: set-up samples, a one-day
// memory run, then timed repetitions until budget is spent.
func measureEndToEnd(w workload, seed int64, budget time.Duration, log io.Writer) (report, error) {
	rep := report{Correct: true}
	check := func(what string, err error) {
		if err != nil {
			rep.Correct = false
			fmt.Fprintf(log, "FAIL %s: %v\n", what, err)
		}
	}

	// Set-up includes a cold FACS surface compile on every workload: the
	// compiled surfaces are part of the stack every run builds (the
	// traced run times them on every workload's stream).
	var compiled *facs.CompiledController
	var compiles []float64
	for i := 0; i < compileSamples; i++ {
		start := time.Now()
		c, err := facs.NewCompiled(0)
		if err != nil {
			return rep, fmt.Errorf("compiling the FACS surfaces: %w", err)
		}
		compiles = append(compiles, time.Since(start).Seconds())
		compiled = c
	}
	newCtrl := newController(w.controller, compiled)

	// bytes_per_call comes from a one-day run of its own: MeasureMem
	// forces a GC inside the wave loop, which must not land in the timed
	// repetitions.
	memCfg := w.config(seed, 1, newCtrl)
	memCfg.MeasureMem = true
	mem, err := experiments.RunMetropolis(memCfg)
	if err != nil {
		return rep, fmt.Errorf("memory run: %w", err)
	}
	rep.Attempted += operations(mem)
	fmt.Fprintf(log, "one-day outcome: %v (%.2f%% accepted, %.2f%% of handoffs dropped)\n",
		outcomeOf(mem), mem.AcceptedPct(), mem.DropPct())
	check("one-day run", w.checkRun(mem, seed, 1))
	if w.cellLocal() && w.mode != experiments.MetroBatch {
		// A cell-local controller decides identically on the inline engine.
		inline, err := experiments.RunMetropolis(w.batchConfig(seed, 1, newCtrl))
		if err != nil {
			return rep, fmt.Errorf("inline cross-check: %w", err)
		}
		rep.Attempted += operations(inline)
		if inline.DecisionHash != mem.DecisionHash {
			check("inline cross-check", fmt.Errorf("inline hash %#x, %v hash %#x", inline.DecisionHash, w.mode, mem.DecisionHash))
		}
	}

	var rates, setups []float64
	var first experiments.MetropolisResult
	start := time.Now()
	for len(rates) < minRepetitions || time.Since(start) < budget {
		t0 := time.Now()
		res, err := experiments.RunMetropolis(w.config(seed, w.daysPerRep, newCtrl))
		wall := time.Since(t0)
		if err != nil {
			return rep, fmt.Errorf("repetition %d: %w", len(rates)+1, err)
		}
		rep.Attempted += operations(res)
		if len(rates) == 0 {
			first = res
			check("repetition", w.checkRun(res, seed, w.daysPerRep))
		} else if res.DecisionHash != first.DecisionHash {
			check("repeatability", fmt.Errorf("repetition %d hashed %#x, the first %#x", len(rates)+1, res.DecisionHash, first.DecisionHash))
		}
		rates = append(rates, res.DecisionsPerSec())
		setups = append(setups, (wall - res.Elapsed).Seconds())
	}
	lo, hi := rates[0], rates[0]
	for _, r := range rates {
		lo, hi = min(lo, r), max(hi, r)
	}
	fmt.Fprintf(log, "decisions_per_s: median %.0f, min %.0f, max %.0f over n=%d repetitions of %d simulated days\n",
		median(rates), lo, hi, len(rates), w.daysPerRep)
	fmt.Fprintf(log, "setup_s: median surface compile %.3f s (n=%d), median engine build %.4f s (n=%d)\n",
		median(compiles), len(compiles), median(setups), len(setups))

	values := map[string]float64{
		"decisions_per_s": median(rates),
		"setup_s":         median(compiles) + median(setups),
		"bytes_per_call":  mem.BytesPerCall,
	}
	return rep, rep.fill(endToEndMetrics, values)
}
