package facs

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"facs/internal/cac"
	"facs/internal/fuzzy"
	"facs/internal/gps"
)

// TestExactEvaluateZeroAllocs pins the exact Mamdani path to zero heap
// allocations: one engine inference with every built-in defuzzifier,
// one full two-stage System evaluation, and two compiled batches: one
// whose every request falls back to the exact engines, one whose every
// request the accept table settles.
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
	for _, tc := range []struct {
		name     string
		fallback bool
	}{{"exact-fallback", true}, {"fast-path", false}} {
		batch := decisionPathBatch(t, cc, 64, tc.fallback)
		out := make([]cac.Decision, len(batch))
		fast0, exact0 := cc.Stats()
		if n := testing.AllocsPerRun(20, func() {
			if err := cc.DecideBatchInto(batch, out); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("CompiledController.DecideBatchInto on a %s batch made %v allocs/op, want 0", tc.name, n)
		}
		// AllocsPerRun adds one warm-up run to the measured ones.
		fast, exact := cc.Stats()
		want := [2]int64{21 * int64(len(batch)), 0}
		if !tc.fallback {
			want[0], want[1] = want[1], want[0]
		}
		if got := [2]int64{exact - exact0, fast - fast0}; got != want {
			t.Fatalf("%s batch over 21 runs of %d requests: (exact, fast) = %v, want %v", tc.name, len(batch), got, want)
		}
	}
}

// decisionPathBatch draws randomized requests and keeps the first n
// that the compiled decision path answers through the exact engines
// (fallback) or from the accept table alone (!fallback), as its own
// counters report. Evaluate's counts would not do: every Evaluate
// counts as exact.
func decisionPathBatch(t *testing.T, cc *CompiledController, n int, fallback bool) []cac.Request {
	t.Helper()
	var out []cac.Request
	for _, req := range batchWorkload(t, rand.New(rand.NewSource(9)), 100000) {
		if !req.Station.Fits(req.Call.BU) {
			continue
		}
		_, before := cc.Stats()
		if _, err := cc.Decide(req); err != nil {
			t.Fatal(err)
		}
		if _, after := cc.Stats(); (after > before) == fallback {
			out = append(out, req)
			if len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("found only %d requests with fallback=%v, want %d", len(out), fallback, n)
	return nil
}

// TestDefaultSurfaceDigest pins the default compiled FLC1 and FLC2
// surfaces bit for bit. Surface compilation runs the exact engine at
// every node, so any drift in the engine's arithmetic fails here.
//
// Two digests per surface:
//
//   - content: the value at every grid node and, for FLC1, the error
//     bound inside every cell, through the public query path. These were
//     computed before the FLC2 error map became node-aligned and must
//     never move with the persistence format.
//   - blob: an FNV-64a digest of the encoded surface (snap envelope,
//     axes, node values, error map and name, config hash 0), which moves
//     with the persistence format and with the error map.
//
// FLC2's node-aligned error map is also pinned by content: the bound at
// every Cv cell centre on every R and Cs node (its aligned axes).
func TestDefaultSurfaceDigest(t *testing.T) {
	cc := goldenCompiled(t)
	for _, tc := range []struct {
		surf          *fuzzy.Surface
		bounds        bool
		content, blob uint64
	}{
		{cc.FLC1Surface(), true, 0x9e7899c32ba49904, 0x9afe9190942cded1},
		{cc.FLC2Surface(), false, 0xe41c0ce49b052922, 0x49499fe8653af1f1},
	} {
		name := tc.surf.OutputName()
		if got := surfaceContentDigest(t, tc.surf, tc.bounds); got != tc.content {
			t.Errorf("%s surface content digest = %#016x, want %#016x", name, got, tc.content)
		}
		var buf bytes.Buffer
		if err := fuzzy.EncodeSurface(&buf, tc.surf, 0); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := h.Sum64(); got != tc.blob {
			t.Errorf("%s surface blob digest = %#016x, want %#016x", name, got, tc.blob)
		}
	}
	if got, want := alignedBoundDigest(t, cc.FLC2Surface()), uint64(0x2cb89e5e5b01afb0); got != want {
		t.Errorf("%s surface aligned bound digest = %#016x, want %#016x", cc.FLC2Surface().OutputName(), got, want)
	}
}

// alignedBoundDigest hashes the error bound of a surface whose last two
// axes are error-map aligned: at every cell centre of the first axis on
// every node of the other two, as little-endian float64 bits under
// FNV-64a.
func alignedBoundDigest(t *testing.T, s *fuzzy.Surface) uint64 {
	t.Helper()
	axes := s.Axes()
	n0, n1, n2 := axes[0].Nodes(), axes[1].Nodes(), axes[2].Nodes()
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i+1 < len(n0); i++ {
		for _, y := range n1 {
			for _, z := range n2 {
				_, e, err := s.EvaluateVecWithBound((n0[i]+n0[i+1])/2, y, z)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(e))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// surfaceContentDigest hashes a three-input surface's value at every
// grid node (row-major) and, with bounds set, the error bound at every
// cell centre, as little-endian float64 bits under FNV-64a.
func surfaceContentDigest(t *testing.T, s *fuzzy.Surface, bounds bool) uint64 {
	t.Helper()
	axes := s.Axes()
	n0, n1, n2 := axes[0].Nodes(), axes[1].Nodes(), axes[2].Nodes()
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, x := range n0 {
		for _, y := range n1 {
			for _, z := range n2 {
				v, err := s.EvaluateVec(x, y, z)
				if err != nil {
					t.Fatal(err)
				}
				put(v)
			}
		}
	}
	if bounds {
		for i := 0; i+1 < len(n0); i++ {
			for j := 0; j+1 < len(n1); j++ {
				for k := 0; k+1 < len(n2); k++ {
					_, e, err := s.EvaluateVecWithBound((n0[i]+n0[i+1])/2, (n1[j]+n1[j+1])/2, (n2[k]+n2[k+1])/2)
					if err != nil {
						t.Fatal(err)
					}
					put(e)
				}
			}
		}
	}
	return h.Sum64()
}
