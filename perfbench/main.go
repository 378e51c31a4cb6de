// Command perfbench is the repository's layered admission benchmark. It
// runs one workload — a metropolis deployment at the paper's 40 BU
// station capacity, decided by guard channel, compiled FACS or the SCC
// demand ledger — checks its outputs, prints every metric by name with
// its unit, and ends with one JSON result line.
//
// With -trace 0 it measures the end-to-end metrics, untraced. With
// -trace 1 it makes the traced run instead: the workload's controllers
// are decorated with span recording, and the op stream of one inline run
// is captured and replayed through each public entry point of the stack
// in turn, from the compiled surfaces up to RunMetropolis, so each
// layer's cost is the gap between two adjacent rungs.
//
// Usage, from this directory (run.py at the repository root builds and
// runs it the same way):
//
//	go run . -workload city-guard -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// provenance identifies the machine a result was measured on.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "measurement budget of the untraced run, in seconds")
	trace := fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 makes the traced per-layer run")
	spans := fs.String("spans", "", "file the traced run writes its spans to (default: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var rep report
	var defs []metricDef
	switch *trace {
	case 0:
		defs = endToEndMetrics
		rep, err = measureEndToEnd(w, *seed, time.Duration(*seconds)*time.Second, stdout)
	case 1:
		defs = perLayerMetrics
		rep, err = measureLayers(w, *seed, *spans, stdout)
	default:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout, defs)
	prov, err := json.Marshal(provenance{
		Workload: w.name, Seed: *seed, Trace: *trace,
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
