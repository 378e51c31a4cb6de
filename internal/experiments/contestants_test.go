package experiments

import (
	"strings"
	"testing"

	"facs/internal/cell"
	"facs/internal/facs"
	"facs/internal/scc"
)

func TestContestantCatalogue(t *testing.T) {
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"facs":      "facs",
		"scc":       "scc-ledger",
		"cs":        "complete-sharing",
		"guard":     "guard-channel",
		"threshold": "multi-priority-threshold",
	}
	if len(ContestantNames) != len(want) {
		t.Fatalf("catalogue lists %v, want the %d names of %v", ContestantNames, len(want), want)
	}
	for _, name := range ContestantNames {
		factory, err := Contestant{Name: name, GuardBU: 8, AcceptThreshold: facs.DefaultAcceptThreshold}.Factory()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, err := factory(net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != want[name] {
			t.Fatalf("%s builds %q, want %q", name, a.Name(), want[name])
		}
		b, err := factory(net)
		if err != nil {
			t.Fatal(err)
		}
		if name == "facs" && a != b {
			t.Fatal("every network should share one FACS")
		}
		if name == "scc" && a == b {
			t.Fatal("every network should get its own SCC ledger")
		}
	}
	if l, err := sccLedgerFactory(0.7, 12)(net); err != nil {
		t.Fatal(err)
	} else if cfg := l.(*scc.Ledger).Config(); cfg.Threshold != 0.7 || cfg.Horizon != 12 || !cfg.RequireClusterCoverage {
		t.Fatalf("sccLedgerFactory(0.7, 12) config %+v", cfg)
	}
	_, err = Contestant{Name: "bogus"}.Factory()
	if err == nil || !strings.Contains(err.Error(), "(valid: facs, scc, cs, guard, threshold)") {
		t.Fatalf("unknown name should list the catalogue, got %v", err)
	}
	for _, bad := range []Contestant{
		{Name: "cs", Compiled: true},
		{Name: "guard", Compiled: true},
	} {
		if _, err := bad.Factory(); err == nil {
			t.Fatalf("%+v should be refused", bad)
		}
	}
}

// TestContestantCompiledDefaultIsShared: a default-config compile
// reuses facs.DefaultCompiled and logs the compile lines.
func TestContestantCompiledDefaultIsShared(t *testing.T) {
	var log []string
	factory, err := Contestant{
		Name:            "facs",
		AcceptThreshold: facs.DefaultAcceptThreshold,
		Compiled:        true,
		Log:             func(line string) { log = append(log, line) },
	}.Factory()
	if err != nil {
		t.Fatal(err)
	}
	got, err := factory(nil)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := facs.DefaultCompiled()
	if err != nil {
		t.Fatal(err)
	}
	if got != shared {
		t.Fatal("default compiled build should reuse facs.DefaultCompiled")
	}
	if len(log) != 2 || !strings.HasPrefix(log[0], "building the compiled FACS") || !strings.HasPrefix(log[1], "compiled in") {
		t.Fatalf("log = %q", log)
	}
}
