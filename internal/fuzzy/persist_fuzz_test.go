package fuzzy

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"facs/internal/snap"
)

// fuzzConfigHash is the expected config hash the fuzz target decodes
// against; the valid seed blob is encoded with it.
const fuzzConfigHash uint64 = 0xfacc0de5

// fuzzSurfaceBlob encodes one small valid surface — the happy-path seed
// every mutation starts from — with its error map aligned to the given
// axes.
func fuzzSurfaceBlob(aligned ...string) []byte {
	x := MustVariable("x", 0, 10,
		Term{Name: "lo", MF: MustTriangular(0, 0, 6)},
		Term{Name: "hi", MF: MustTriangular(10, 6, 0)},
	)
	y := MustVariable("y", 0, 1,
		Term{Name: "off", MF: MustTriangular(0, 0, 1)},
		Term{Name: "on", MF: MustTriangular(1, 1, 0)},
	)
	z := MustVariable("z", 0, 1,
		Term{Name: "small", MF: MustTriangular(0, 0, 0.6)},
		Term{Name: "large", MF: MustTriangular(1, 0.6, 0)},
	)
	rules := []Rule{
		{If: []Clause{{Var: "x", Term: "lo"}, {Var: "y", Term: "off"}}, Then: Clause{Var: "z", Term: "small"}},
		{If: []Clause{{Var: "x", Term: "lo"}, {Var: "y", Term: "on"}}, Then: Clause{Var: "z", Term: "large"}},
		{If: []Clause{{Var: "x", Term: "hi"}, {Var: "y", Term: "off"}}, Then: Clause{Var: "z", Term: "large"}},
		{If: []Clause{{Var: "x", Term: "hi"}, {Var: "y", Term: "on"}}, Then: Clause{Var: "z", Term: "small"}},
	}
	e := MustEngine([]*Variable{x, y}, z, rules)
	s, err := NewSurface(e, WithSurfaceGrid(5, 3), WithSurfaceErrorMap(1), WithSurfaceAlignedAxes(aligned...))
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := EncodeSurface(&buf, s, fuzzConfigHash); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fuzzSurfaceSeeds are FuzzDecodeSurface's named seeds: the valid
// blobs, truncations and flips in every envelope section, and payload
// edits behind a re-fixed checksum, which are the only mutations that
// reach the surface shape checks.
func fuzzSurfaceSeeds() []fuzzSeed {
	valid := fuzzSurfaceBlob()
	seeds := []fuzzSeed{
		{"valid", valid},
		{"valid_aligned", fuzzSurfaceBlob("y")},
		{"empty", []byte{}},
		{"magic_only", []byte("FSNP")},
		{"trailing", append(append([]byte(nil), valid...), 0xff)},
	}
	// Envelope offsets: magic, version, kind, config hash, payload.
	kind := 4 + 4
	hash := kind + 4 + len(surfaceKind)
	nAxes := hash + 8 + 4 + len("z")
	xNodes := nAxes + 4 + 4 + len("x") + 4
	for _, c := range []struct {
		name string
		n    int
	}{{"magic", 2}, {"header", kind + 6}, {"hash", hash + 3}, {"mid", len(valid) / 2}, {"sum", len(valid) - 1}} {
		seeds = append(seeds, fuzzSeed{"trunc_" + c.name, valid[:c.n]})
	}
	for _, c := range []struct {
		name string
		i    int
	}{{"magic", 0}, {"version", 5}, {"kind", kind + 6}, {"hash", hash + 3}, {"payload", len(valid) / 2}, {"sum", len(valid) - 3}} {
		mut := append([]byte(nil), valid...)
		mut[c.i] ^= 0x40
		seeds = append(seeds, fuzzSeed{"flip_" + c.name, mut})
	}
	for _, c := range []struct {
		name string
		i    int
		v    byte
	}{{"axes", nAxes, 9}, {"axis_nodes", xNodes - 4, 1}, {"node_order", xNodes + 8 + 7, 0xff}, {"payload", len(valid) / 2, 0x7f}} {
		mut := append([]byte(nil), valid...)
		mut[c.i] = c.v
		fixChecksum(mut)
		seeds = append(seeds, fuzzSeed{"fixed_" + c.name, mut})
	}
	// The last error bound sits right before the checksum; setting its
	// sign bit makes it negative.
	neg := append([]byte(nil), valid...)
	neg[len(neg)-9] |= 0x80
	fixChecksum(neg)
	seeds = append(seeds, fuzzSeed{"fixed_negative_bound", neg})
	return seeds
}

type fuzzSeed struct {
	name string
	blob []byte
}

// FuzzDecodeSurface pins the decoder's total robustness contract:
// whatever bytes arrive — truncated, bit-flipped, adversarially
// structured — DecodeSurface either returns a usable surface or one of
// the two snap sentinel errors (ErrSnapshotStale, ErrSnapshotCorrupt).
// It must never panic, never return an unclassified error, never hand
// back a surface alongside an error, and never hand back a negative or
// NaN error bound or an axis of infinite span. It is the one fuzz target
// that reaches the surface shape checks behind the envelope. CI runs a
// bounded smoke (-fuzz=FuzzDecodeSurface -fuzztime=10s); the checked-in
// corpus under testdata/fuzz replays as part of the normal test suite.
func FuzzDecodeSurface(f *testing.F) {
	for _, seed := range fuzzSurfaceSeeds() {
		f.Add(seed.blob)
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := DecodeSurface(bytes.NewReader(blob), fuzzConfigHash)
		if err != nil {
			if !errors.Is(err, snap.ErrSnapshotStale) && !errors.Is(err, snap.ErrSnapshotCorrupt) {
				t.Fatalf("unclassified decode error %v (want snap.ErrSnapshotStale or snap.ErrSnapshotCorrupt)", err)
			}
			if s != nil {
				t.Fatalf("non-nil surface returned alongside error %v", err)
			}
			return
		}
		if s == nil {
			t.Fatal("nil surface without error")
		}
		// Every bound a guarded caller may act on is a real bound, and
		// every axis spans a finite range.
		for k, b := range s.errs {
			if !(b >= 0) {
				t.Fatalf("decoded error bound %d is %v", k, b)
			}
		}
		for _, a := range s.axes {
			if !(a.Max()-a.Min() < math.Inf(1)) {
				t.Fatalf("decoded axis %q spans [%v, %v]", a.Name, a.Min(), a.Max())
			}
		}
		// A blob that decodes must yield a usable interpolant: probing a
		// grid corner exercises the rebuilt axes and value array.
		axes := s.Axes()
		in := make([]float64, len(axes))
		for i, a := range axes {
			in[i] = a.Min()
		}
		if _, evalErr := s.EvaluateVec(in...); evalErr != nil {
			t.Fatalf("decoded surface rejects its own corner: %v", evalErr)
		}
	})
}

// TestWriteSurfaceFuzzCorpus regenerates the checked-in seed corpus
// under testdata/fuzz/FuzzDecodeSurface when FACS_WRITE_FUZZ_CORPUS=1
// is set; it is a no-op otherwise.
func TestWriteSurfaceFuzzCorpus(t *testing.T) {
	if os.Getenv("FACS_WRITE_FUZZ_CORPUS") != "1" {
		t.Skip("set FACS_WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSurface")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seed := range fuzzSurfaceSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.blob)
		if err := os.WriteFile(filepath.Join(dir, "seed_"+seed.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
