package facs

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"

	"facs/internal/cac"
	"facs/internal/fuzzy"
	"facs/internal/gps"
)

// TestExactEvaluateZeroAllocs pins the exact Mamdani path to zero heap
// allocations: one engine inference with every built-in defuzzifier,
// one full two-stage System evaluation, and a compiled batch whose every
// request falls back to the exact engines through the guard band.
func TestExactEvaluateZeroAllocs(t *testing.T) {
	defuzzifiers := []func() fuzzy.Defuzzifier{
		func() fuzzy.Defuzzifier { return fuzzy.Centroid{} },
		func() fuzzy.Defuzzifier { return fuzzy.Bisector{} },
		func() fuzzy.Defuzzifier { return fuzzy.MeanOfMaxima{} },
		func() fuzzy.Defuzzifier { return fuzzy.NewWeightedAverage() },
	}
	for _, mk := range defuzzifiers {
		sys := Must(WithDefuzzifier(mk))
		name := sys.FLC1().Output().Name()
		if n := testing.AllocsPerRun(100, func() {
			if _, err := sys.FLC1().EvaluateVec(37, -42, 3.5); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.FLC2().EvaluateVec(0.4, 5, 23); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s/%s: Engine.EvaluateVec made %v allocs/op, want 0", mk().Name(), name, n)
		}
	}

	sys := Must()
	obs := gps.Observation{SpeedKmh: 60, AngleDeg: 50, DistanceKm: 7}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := sys.Evaluate(obs, 5, 20, true); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("System.Evaluate made %v allocs/op, want 0", n)
	}

	cc := goldenCompiled(t)
	batch := guardBandBatch(t, cc, 64)
	out := make([]cac.Decision, len(batch))
	_, exact0 := cc.Stats()
	if n := testing.AllocsPerRun(20, func() {
		if err := cc.DecideBatchInto(batch, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CompiledController.DecideBatchInto on a guard-band batch made %v allocs/op, want 0", n)
	}
	// AllocsPerRun adds one warm-up run to the measured ones.
	if _, exact := cc.Stats(); exact-exact0 != 21*int64(len(batch)) {
		t.Fatalf("%d exact fallbacks over 21 runs of %d requests: the batch is not wholly inside the guard band", exact-exact0, len(batch))
	}
}

// guardBandBatch draws randomized requests and keeps the first n that
// the compiled controller answers through the exact fallback.
func guardBandBatch(t *testing.T, cc *CompiledController, n int) []cac.Request {
	t.Helper()
	var out []cac.Request
	for _, req := range batchWorkload(t, rand.New(rand.NewSource(9)), 20000) {
		if !req.Station.Fits(req.Call.BU) {
			continue
		}
		_, before := cc.Stats()
		if _, err := cc.Evaluate(req.Obs, req.Call.BU, req.Station.Used(), req.Handoff); err != nil {
			t.Fatal(err)
		}
		if _, after := cc.Stats(); after > before {
			out = append(out, req)
			if len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("found only %d guard-band requests, want %d", len(out), n)
	return nil
}

// TestDefaultSurfaceDigest pins the default compiled FLC1 and FLC2
// surfaces bit for bit: an FNV-64a digest of each encoded surface
// (axes, node values, per-cell error map and name, config hash 0).
// Surface compilation runs the exact engine at every node, so any
// drift in the engine's arithmetic fails here, and so would a change
// that made persisted surfaces stale.
func TestDefaultSurfaceDigest(t *testing.T) {
	cc := goldenCompiled(t)
	for _, tc := range []struct {
		surf *fuzzy.Surface
		want uint64
	}{
		{cc.FLC1Surface(), 0x3ed2f2ea6d92cf8a},
		{cc.FLC2Surface(), 0x2f06899eab7be57d},
	} {
		var buf bytes.Buffer
		if err := fuzzy.EncodeSurface(&buf, tc.surf, 0); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s surface digest = %#016x, want %#016x", tc.surf.OutputName(), got, tc.want)
		}
	}
}
