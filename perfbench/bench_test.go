package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sync"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/experiments"
	"facs/internal/facs"
)

// tinyWorkloads mirror the benchmark's three controller and engine
// pairings on a 19-cell deployment, small enough for a unit test.
var tinyWorkloads = []workload{
	{name: "tiny-guard", controller: guardCtrl, mode: experiments.MetroSharded, shards: 2, rings: 2, target: 150, daysPerRep: 1},
	{name: "tiny-facs", controller: facsCtrl, mode: experiments.MetroBatch, shards: 1, rings: 2, target: 150, daysPerRep: 1},
	{name: "tiny-scc", controller: sccCtrl, mode: experiments.MetroSharded, shards: 2, rings: 2, target: 150, daysPerRep: 1},
}

var testCompiled = sync.OnceValues(func() (*facs.CompiledController, error) { return facs.NewCompiled(0) })

func compiledFACS(t *testing.T) *facs.CompiledController {
	t.Helper()
	c, err := testCompiled()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDecoratorKeepsCapabilities(t *testing.T) {
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 2, CellRadiusM: cellRadiusM, CapacityBU: capacityBU})
	if err != nil {
		t.Fatal(err)
	}
	guard, err := cac.NewGuardChannel(guardBU)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := newLedger(net)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ctrl cac.Controller
		want string
	}{
		{"guard", guard, localSnapCaps},
		{"compiled", compiledFACS(t), localCaps},
		{"ledger", ledger, ledgerCaps},
	} {
		if got := capabilities(tc.ctrl); got != tc.want {
			t.Errorf("%s implements {%s}, want {%s}", tc.name, got, tc.want)
		}
		wrapped, err := newTracer().wrap(tc.ctrl)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := capabilities(wrapped); got != tc.want {
			t.Errorf("decorated %s implements {%s}, want {%s}", tc.name, got, tc.want)
		}
		_, local := wrapped.(cac.CellLocal)
		_, exchanger := wrapped.(cac.DemandExchanger)
		if local == exchanger {
			t.Errorf("decorated %s: CellLocal %v, DemandExchanger %v; want exactly one", tc.name, local, exchanger)
		}
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range tinyWorkloads {
		newCtrl := newController(w.controller, compiledFACS(t))
		plain, err := experiments.RunMetropolis(w.config(defaultSeed, 1, newCtrl))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tr := newTracer()
		var traced experiments.MetropolisResult
		err = tr.run(func() (err error) {
			traced, err = experiments.RunMetropolis(w.config(defaultSeed, 1, tr.factory(newCtrl)))
			return err
		})
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if traced.DecisionHash != plain.DecisionHash {
			t.Errorf("%s: traced hash %#x, untraced %#x", w.name, traced.DecisionHash, plain.DecisionHash)
		}
		lt := selfTimes(tr.spans())
		if got, want := lt.items[spanDecide], int64(plain.Decisions()); got != want {
			t.Errorf("%s: decide spans cover %d requests, the run decided %d", w.name, got, want)
		}
		if w.controller == sccCtrl && (lt.calls[spanExchange] == 0 || lt.calls[spanObserve] == 0) {
			t.Errorf("%s: no exchange or observer spans recorded", w.name)
		}
	}
}

func TestLadderReproducesCapture(t *testing.T) {
	for _, w := range tinyWorkloads {
		newCtrl := newController(w.controller, compiledFACS(t))
		s, res, err := capture(w, defaultSeed, newCtrl)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if s.decisions() != res.Decisions() {
			t.Errorf("%s: captured %d decisions, the run made %d", w.name, s.decisions(), res.Decisions())
		}
		// runLadder fails on any rung whose outcomes differ from the
		// capture (the sharded SCC rung excepted).
		lad, err := runLadder(w, s, compiledFACS(t), newCtrl, defaultSeed, testWriter{t})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if lad.surfaceChecked == 0 {
			t.Errorf("%s: the surface rung checked no verdict", w.name)
		}
		if w.cellLocal() && lad.shardMismatches != 0 {
			t.Errorf("%s: %d shard-rung outcomes differ", w.name, lad.shardMismatches)
		}
	}
}

func TestCovered(t *testing.T) {
	got := covered([][2]int64{{20, 30}, {0, 10}, {5, 15}, {15, 18}})
	if got != 28 {
		t.Errorf("covered = %d, want 28", got)
	}
	spans := []span{
		{kind: spanRun, parent: -1, start: 0, end: 100},
		{kind: spanDecide, parent: 0, start: 10, end: 30, n: 4},
		{kind: spanDecide, parent: 0, start: 20, end: 40, n: 2},
	}
	lt := selfTimes(spans)
	if lt.self[spanRun] != 70 || lt.self[spanDecide] != 40 || lt.items[spanDecide] != 6 {
		t.Errorf("self times %v, items %v", lt.self, lt.items)
	}
}

// TestMetricNames pins the metric lists to the contract's limits and to
// BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(endToEndMetrics); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q is not valid", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q is declared twice", d.name)
		}
		seen[d.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []entry, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark %d", len(declared), what, len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					what, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEndMetrics)
	same("per-layer", doc.PerLayer, perLayerMetrics)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// testWriter routes the ladder's progress lines to the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
