// Command facs-repro regenerates every table and figure of the paper's
// evaluation section, plus the ablation studies enumerated in
// internal/experiments/ablations.go.
//
// Usage:
//
//	facs-repro [-artifact all|fig7|fig8|fig9|fig10|table1|table2|mf|ablations|<ablation-id>]
//	           [-points 10,20,...] [-seeds 5] [-csv DIR] [-quick]
//	           [-workers N]
//
// Output is an aligned table plus an ASCII chart per artifact; -csv also
// writes one CSV file per artifact into DIR.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"facs"
	ifacs "facs/internal/facs"
	ifuzzy "facs/internal/fuzzy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "facs-repro:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("facs-repro", flag.ContinueOnError)
	artifact := fs.String("artifact", "all", "artifact to regenerate: all, fig7, fig8, fig9, fig10, table1, table2, mf, ablations, or a single ablation id")
	points := fs.String("points", "", "comma-separated load points (default 10..100 step 10)")
	seeds := fs.Int("seeds", 5, "number of replication seeds")
	csvDir := fs.String("csv", "", "directory to write per-artifact CSV files")
	quick := fs.Bool("quick", false, "coarse run: points 20,60,100 and 2 seeds")
	workers := fs.Int("workers", 0, "worker pool size for replications (0 = one per CPU; results are worker-count invariant)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fc := facs.FigureConfig{Workers: *workers}
	if *quick {
		fc.LoadPoints = []int{20, 60, 100}
		fc.Seeds = []int64{1, 2}
	}
	if *points != "" {
		fc.LoadPoints = nil
		for _, tok := range strings.Split(*points, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return fmt.Errorf("bad -points entry %q: %w", tok, err)
			}
			fc.LoadPoints = append(fc.LoadPoints, n)
		}
	}
	if *seeds > 0 && !*quick {
		fc.Seeds = nil
		for s := int64(1); s <= int64(*seeds); s++ {
			fc.Seeds = append(fc.Seeds, s)
		}
	}

	figures, tables, err := collect(*artifact, fc)
	if err != nil {
		return err
	}
	for _, text := range tables {
		fmt.Println(text)
	}
	for _, fig := range figures {
		printFigure(fig)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, fig); err != nil {
				return err
			}
		}
	}
	return nil
}

// collect resolves the artifact selector into figures and/or static
// tables.
func collect(artifact string, fc facs.FigureConfig) ([]facs.Figure, []string, error) {
	var figures []facs.Figure
	var tables []string
	add := func(fig facs.Figure, err error) error {
		if err != nil {
			return err
		}
		figures = append(figures, fig)
		return nil
	}
	switch artifact {
	case "all":
		tables = append(tables, renderTable1(), renderTable2(), renderMembershipCharts())
		figs, err := facs.AllFigures(fc)
		if err != nil {
			return nil, nil, err
		}
		figures = append(figures, figs...)
	case "fig7":
		if err := add(facs.Figure7(fc)); err != nil {
			return nil, nil, err
		}
	case "fig8":
		if err := add(facs.Figure8(fc)); err != nil {
			return nil, nil, err
		}
	case "fig9":
		if err := add(facs.Figure9(fc)); err != nil {
			return nil, nil, err
		}
	case "fig10":
		if err := add(facs.Figure10(fc)); err != nil {
			return nil, nil, err
		}
	case "table1":
		tables = append(tables, renderTable1())
	case "table2":
		tables = append(tables, renderTable2())
	case "mf", "mf1", "mf6":
		tables = append(tables, renderMembershipCharts())
	case "ablations":
		figs, err := facs.AllAblations(fc)
		if err != nil {
			return nil, nil, err
		}
		figures = append(figures, figs...)
	case "ablation-defuzzifier":
		if err := add(facs.AblationDefuzzifier(fc)); err != nil {
			return nil, nil, err
		}
	case "ablation-threshold":
		if err := add(facs.AblationThreshold(fc)); err != nil {
			return nil, nil, err
		}
	case "ablation-scc":
		if err := add(facs.AblationSCC(fc)); err != nil {
			return nil, nil, err
		}
	case "ablation-baselines":
		if err := add(facs.AblationBaselines(fc)); err != nil {
			return nil, nil, err
		}
	case "ablation-gps-noise":
		if err := add(facs.AblationGPSNoise(fc)); err != nil {
			return nil, nil, err
		}
	case "ablation-handoff-priority":
		if err := add(facs.AblationHandoffPriority(fc)); err != nil {
			return nil, nil, err
		}
	case "ablation-queueing":
		if err := add(facs.AblationQueueing(fc)); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("unknown artifact %q", artifact)
	}
	return figures, tables, nil
}

func printFigure(fig facs.Figure) {
	fmt.Printf("==== %s (%s) ====\n", fig.Title, fig.ID)
	fmt.Print(facs.Table(fig.Series))
	fmt.Print(facs.Chart(fig.Series, facs.ChartOptions{
		XLabel: fig.XLabel,
		YLabel: fig.YLabel,
	}))
	for _, note := range fig.Notes {
		fmt.Println("note:", note)
	}
	fmt.Println()
}

func writeCSV(dir string, fig facs.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fig.ID+".csv")
	if err := os.WriteFile(path, []byte(facs.CSV(fig.Series)), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// renderTable1 prints the paper's Table 1 (FRB1) from the compiled rule
// base, proving that the code carries exactly the published rules.
func renderTable1() string {
	var b strings.Builder
	b.WriteString("==== Table 1: FRB1 (42 rules) ====\n")
	fmt.Fprintf(&b, "%4s  %-3s %-3s %-2s  %s\n", "Rule", "S", "A", "D", "Cv")
	for i, r := range ifacs.FRB1Rules() {
		fmt.Fprintf(&b, "%4d  %-3s %-3s %-2s  %s\n", i, r.If[0].Term, r.If[1].Term, r.If[2].Term, r.Then.Term)
	}
	return b.String()
}

// renderTable2 prints the paper's Table 2 (FRB2).
func renderTable2() string {
	var b strings.Builder
	b.WriteString("==== Table 2: FRB2 (27 rules) ====\n")
	fmt.Fprintf(&b, "%4s  %-2s %-2s %-2s  %s\n", "Rule", "Cv", "R", "Cs", "A/R")
	for i, r := range ifacs.FRB2Rules() {
		fmt.Fprintf(&b, "%4d  %-2s %-2s %-2s  %s\n", i, r.If[0].Term, r.If[1].Term, r.If[2].Term, r.Then.Term)
	}
	return b.String()
}

// renderMembershipCharts prints ASCII plots of every linguistic variable
// of both controllers (paper Figs. 5 and 6).
func renderMembershipCharts() string {
	var b strings.Builder
	b.WriteString("==== Membership functions (paper Figs. 5 and 6) ====\n")
	p := ifacs.DefaultParams()
	vars := []struct {
		title string
		build func(ifacs.Params) (*ifuzzy.Variable, error)
	}{
		{"Fig. 5(a) Speed S [km/h]", ifacs.NewSpeedVariable},
		{"Fig. 5(b) Angle A [deg]", ifacs.NewAngleVariable},
		{"Fig. 5(c) Distance D [km]", ifacs.NewDistanceVariable},
		{"Fig. 5(d) Correction value Cv", ifacs.NewCvVariable},
		{"Fig. 6(a) Cv (FLC2 input)", ifacs.NewCvInputVariable},
		{"Fig. 6(b) Request R [BU]", ifacs.NewRequestVariable},
		{"Fig. 6(c) Counter state Cs [BU]", ifacs.NewCounterVariable},
		{"Fig. 6(d) Accept/Reject A/R", ifacs.NewARVariable},
	}
	for _, v := range vars {
		variable, err := v.build(p)
		if err != nil {
			fmt.Fprintf(&b, "%s: error: %v\n", v.title, err)
			continue
		}
		b.WriteString(membershipChart(v.title, variable))
		b.WriteByte('\n')
	}
	return b.String()
}

func membershipChart(title string, v *ifuzzy.Variable) string {
	const samples = 73
	min, max := v.Universe()
	series := make([]facs.Series, 0, v.NumTerms())
	for _, term := range v.Terms() {
		s := facs.Series{Label: term.Name}
		for i := 0; i < samples; i++ {
			x := min + (max-min)*float64(i)/float64(samples-1)
			s.Append(x, term.MF.Membership(x))
		}
		series = append(series, s)
	}
	return facs.Chart(series, facs.ChartOptions{
		Title:  title,
		Height: 9,
		YMin:   0,
		YMax:   1,
		XLabel: v.Name(),
		YLabel: "membership",
	})
}
