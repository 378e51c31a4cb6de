package experiments

import (
	"hash/fnv"
	"strings"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/facs"
	"facs/internal/plot"
)

// tinyFC keeps ablation runs fast: one light and one heavy load point,
// one seed.
func tinyFC() FigureConfig {
	return FigureConfig{LoadPoints: []int{20, 80}, Seeds: []int64{1}}
}

func TestAblationDefuzzifierStructure(t *testing.T) {
	fig, err := AblationDefuzzifier(tinyFC())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "ablation-defuzzifier" {
		t.Fatalf("ID = %q", fig.ID)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("want 4 defuzzifier series, got %d", len(fig.Series))
	}
	labels := map[string]bool{}
	for _, s := range fig.Series {
		labels[s.Label] = true
		if s.Len() != 2 {
			t.Fatalf("series %q has %d points", s.Label, s.Len())
		}
	}
	for _, want := range []string{"centroid", "weighted-average", "bisector", "mean-of-maxima"} {
		if !labels[want] {
			t.Fatalf("missing series %q", want)
		}
	}
	// All methods must agree within a broad band: they defuzzify the
	// same rule activations.
	for _, s := range fig.Series {
		base := fig.Series[0]
		for i := range s.Y {
			if diff := s.Y[i] - base.Y[i]; diff > 25 || diff < -25 {
				t.Fatalf("defuzzifier %q diverges from centroid by %v points", s.Label, diff)
			}
		}
	}
}

func TestAblationThresholdMonotone(t *testing.T) {
	fig, err := AblationThreshold(tinyFC())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("want 4 threshold series, got %d", len(fig.Series))
	}
	// A stricter threshold never accepts more calls on the same workload.
	for i := 1; i < len(fig.Series); i++ {
		looser, stricter := fig.Series[i-1], fig.Series[i]
		for j := range stricter.Y {
			if stricter.Y[j] > looser.Y[j]+1e-9 {
				t.Fatalf("threshold %q accepts more than %q at point %d (%v > %v)",
					stricter.Label, looser.Label, j, stricter.Y[j], looser.Y[j])
			}
		}
	}
}

func TestAblationSCCStructure(t *testing.T) {
	fig, err := AblationSCC(FigureConfig{LoadPoints: []int{40}, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 5 {
		t.Fatalf("want 5 SCC variants, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if !strings.Contains(s.Label, "tau=") {
			t.Fatalf("label %q missing tau", s.Label)
		}
	}
	// tau=1.00 reserves least, tau=0.70 most: acceptance ordered.
	y070, _ := fig.Series[0].YAt(40)
	y100, _ := fig.Series[2].YAt(40)
	if y070 > y100+1e-9 {
		t.Fatalf("tau=0.70 (%v) should not accept more than tau=1.00 (%v)", y070, y100)
	}
}

func TestAblationBaselinesStructure(t *testing.T) {
	fig, err := AblationBaselines(FigureConfig{LoadPoints: []int{60}, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 5 {
		t.Fatalf("want 5 schemes, got %d", len(fig.Series))
	}
	if len(fig.Notes) != 5 {
		t.Fatalf("want one note per scheme, got %d", len(fig.Notes))
	}
	byLabel := map[string]float64{}
	for _, s := range fig.Series {
		y, ok := s.YAt(60)
		if !ok {
			t.Fatalf("series %q missing point", s.Label)
		}
		byLabel[s.Label] = y
	}
	// Complete sharing is the upper bound on acceptance.
	cs := byLabel["complete-sharing"]
	for label, y := range byLabel {
		if y > cs+1e-9 {
			t.Fatalf("%s accepts more (%v) than complete sharing (%v)", label, y, cs)
		}
	}
	// FACS trades admissions for QoS under load, so it must sit at or
	// below the complete-sharing ceiling (strictly below at N=60 in
	// every calibrated run so far).
	if byLabel["FACS"] >= cs {
		t.Fatal("FACS should accept fewer calls than complete sharing at N=60")
	}
}

func TestAblationGPSNoiseStructure(t *testing.T) {
	fig, err := AblationGPSNoise(FigureConfig{LoadPoints: []int{80}, Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 5 {
		t.Fatalf("want 5 noise levels, got %d", len(fig.Series))
	}
	if fig.Series[0].Label != "no noise" {
		t.Fatalf("first series = %q, want no noise", fig.Series[0].Label)
	}
	// Heavy noise must not help walking users.
	clean, _ := fig.Series[0].YAt(80)
	noisy, _ := fig.Series[len(fig.Series)-1].YAt(80)
	if noisy > clean+5 {
		t.Fatalf("sigma=30m acceptance (%v) should not exceed noise-free (%v)", noisy, clean)
	}
}

func TestAllFiguresAndAblations(t *testing.T) {
	fc := FigureConfig{LoadPoints: []int{30}, Seeds: []int64{1}}
	figs, err := AllFigures(fc)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"fig7", "fig8", "fig9", "fig10"}
	if len(figs) != len(wantIDs) {
		t.Fatalf("AllFigures returned %d figures", len(figs))
	}
	for i, fig := range figs {
		if fig.ID != wantIDs[i] {
			t.Fatalf("figure %d = %q, want %q", i, fig.ID, wantIDs[i])
		}
	}
	abls, err := AllAblations(fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(abls) != 7 {
		t.Fatalf("AllAblations returned %d, want 7 (A1..A7)", len(abls))
	}
	seen := map[string]bool{}
	for _, fig := range abls {
		if seen[fig.ID] {
			t.Fatalf("duplicate ablation ID %q", fig.ID)
		}
		seen[fig.ID] = true
	}

	// Byte-identity pin: every figure and ablation, exact and compiled,
	// renders to the same CSV and notes as when the digests were
	// captured. Compiled FACS decides exactly like the exact engine, so
	// one table serves both modes.
	for _, compiled := range []bool{false, true} {
		fc := FigureConfig{LoadPoints: []int{30, 90}, Seeds: []int64{1, 2}, Compiled: compiled}
		figs, err := AllFigures(fc)
		if err != nil {
			t.Fatal(err)
		}
		abls, err := AllAblations(fc)
		if err != nil {
			t.Fatal(err)
		}
		for _, fig := range append(figs, abls...) {
			if got, want := figureDigest(fig), figureDigests[fig.ID]; got != want {
				t.Errorf("compiled=%v: %s digest %#016x, want %#016x", compiled, fig.ID, got, want)
			}
		}
	}
}

// figureDigests pins figureDigest for every figure and ablation at load
// points {30, 90} and seeds {1, 2}.
var figureDigests = map[string]uint64{
	"fig7":                      0xba70ca439febef14,
	"fig8":                      0x003b38fd89b77aa0,
	"fig9":                      0xc8f4c351e9233be5,
	"fig10":                     0x55e97a40dd98c39e,
	"ablation-defuzzifier":      0x7001598b1fdff29e,
	"ablation-threshold":        0xa7659b6152e2e08c,
	"ablation-scc":              0xafd441dd4a2490cb,
	"ablation-baselines":        0x947a63508488fd6e,
	"ablation-gps-noise":        0x5b6db742e161878a,
	"ablation-handoff-priority": 0x82decb6f8856ffaf,
	"ablation-queueing":         0x455e601cc1019dfd,
}

// figureDigest is the FNV-64a digest of a figure's CSV rendering
// followed by its notes, one per line.
func figureDigest(fig Figure) uint64 {
	h := fnv.New64a()
	h.Write([]byte(plot.CSV(fig.Series)))
	for _, note := range fig.Notes {
		h.Write([]byte(note + "\n"))
	}
	return h.Sum64()
}

func TestAblationHandoffPriorityTradeoff(t *testing.T) {
	fig, err := AblationHandoffPriority(FigureConfig{LoadPoints: []int{100}, Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "ablation-handoff-priority" {
		t.Fatalf("ID = %q", fig.ID)
	}
	if len(fig.Series) != 4 || len(fig.Notes) != 4 {
		t.Fatalf("want 4 series and 4 notes, got %d/%d", len(fig.Series), len(fig.Notes))
	}
	// The headline of the future-work experiment: adding handoff bias
	// must not raise new-call acceptance (prioritised handoffs occupy
	// bandwidth new calls would have used).
	unbiased, _ := fig.Series[0].YAt(100)
	biased, _ := fig.Series[2].YAt(100)
	if biased > unbiased+1 {
		t.Fatalf("bias=1 acceptance (%v) should not exceed bias=0 (%v)", biased, unbiased)
	}
}

func TestHandoffPolicyStringAndValidation(t *testing.T) {
	if HandoffPhysical.String() != "physical" || HandoffControlled.String() != "controlled" {
		t.Fatal("stringer mismatch")
	}
	if !strings.Contains(HandoffPolicy(7).String(), "7") {
		t.Fatal("unknown policy should include value")
	}
	_, err := RunMultiCell(MultiCellConfig{
		NewController: FACSFactory(),
		NumRequests:   5,
		HandoffPolicy: HandoffPolicy(42),
	})
	if err == nil {
		t.Fatal("unknown handoff policy should be rejected")
	}
}

func TestControlledHandoffsReduceDropsWithBias(t *testing.T) {
	run := func(bias float64) MultiCellResult {
		res, err := RunMultiCell(MultiCellConfig{
			NewController: func(*cell.Network) (cac.Controller, error) {
				return facs.New(facs.WithHandoffBias(bias))
			},
			NumRequests:   100,
			WindowSec:     80,
			HandoffPolicy: HandoffControlled,
			Seed:          1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unbiased := run(0)
	biased := run(1)
	if unbiased.HandoffDrops == 0 {
		t.Skip("workload produced no drops; nothing to compare")
	}
	if biased.DropPct() >= unbiased.DropPct() {
		t.Fatalf("handoff bias should reduce drops: %.2f%% vs %.2f%%",
			biased.DropPct(), unbiased.DropPct())
	}
}
