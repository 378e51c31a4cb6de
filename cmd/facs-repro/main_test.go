package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"facs"
)

func tinyFC() facs.FigureConfig {
	return facs.FigureConfig{LoadPoints: []int{20}, Seeds: []int64{1}}
}

func TestCollectSingleArtifacts(t *testing.T) {
	tests := []struct {
		artifact   string
		wantFigs   int
		wantTables int
	}{
		{"fig7", 1, 0},
		{"fig8", 1, 0},
		{"fig9", 1, 0},
		{"fig10", 1, 0},
		{"table1", 0, 1},
		{"table2", 0, 1},
		{"mf", 0, 1},
		{"ablation-threshold", 1, 0},
		{"ablation-gps-noise", 1, 0},
	}
	for _, tc := range tests {
		t.Run(tc.artifact, func(t *testing.T) {
			figs, tables, err := collect(tc.artifact, tinyFC())
			if err != nil {
				t.Fatal(err)
			}
			if len(figs) != tc.wantFigs || len(tables) != tc.wantTables {
				t.Fatalf("collect(%q) = %d figs, %d tables", tc.artifact, len(figs), len(tables))
			}
		})
	}
}

func TestCollectUnknownArtifact(t *testing.T) {
	if _, _, err := collect("bogus", tinyFC()); err == nil {
		t.Fatal("unknown artifact should error")
	}
}

func TestRenderTable1ContainsAllRules(t *testing.T) {
	out := renderTable1()
	if !strings.Contains(out, "Table 1") {
		t.Fatal("missing caption")
	}
	// The last rule of the paper's Table 1: Fa B2 F -> Cv1.
	if !strings.Contains(out, "  41  Fa  B2  F   Cv1") {
		t.Fatalf("missing rule 41 row:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got < 43 {
		t.Fatalf("table has %d lines, want >= 43", got)
	}
}

func TestRenderTable2ContainsAllRules(t *testing.T) {
	out := renderTable2()
	if !strings.Contains(out, "Table 2") {
		t.Fatal("missing caption")
	}
	// The last rule of the paper's Table 2: G Vi F -> R.
	if !strings.Contains(out, "  26  G  Vi F   R") {
		t.Fatalf("missing rule 26 row:\n%s", out)
	}
}

func TestRenderMembershipCharts(t *testing.T) {
	out := renderMembershipCharts()
	for _, want := range []string{
		"Fig. 5(a)", "Fig. 5(b)", "Fig. 5(c)", "Fig. 5(d)",
		"Fig. 6(a)", "Fig. 6(b)", "Fig. 6(c)", "Fig. 6(d)",
		"Sl", "B1", "NRNA",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("membership charts missing %q", want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	s := facs.Series{Label: "demo"}
	s.Append(1, 2)
	fig := facs.Figure{ID: "test-artifact", Series: []facs.Series{s}}
	if err := writeCSV(dir, fig); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "test-artifact.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "x,demo") {
		t.Fatalf("csv = %q", data)
	}
}

func TestRunQuickFlagAndPoints(t *testing.T) {
	// The full CLI path with a fast artifact.
	if err := run([]string{"-artifact", "table1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-artifact", "fig7", "-points", "15", "-seeds", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-artifact", "bogus"}); err == nil {
		t.Fatal("unknown artifact should fail")
	}
	if err := run([]string{"-artifact", "fig7", "-points", "abc"}); err == nil {
		t.Fatal("malformed points should fail")
	}
}

func TestRunWorkersFlag(t *testing.T) {
	if err := run([]string{"-artifact", "fig7", "-points", "15", "-seeds", "2", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
}
