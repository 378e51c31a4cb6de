package fuzzy

import (
	"bytes"
	"errors"
	"testing"
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

// FuzzDecodeSurface pins the decoder's total robustness contract:
// whatever bytes arrive — truncated, bit-flipped, adversarially
// structured — DecodeSurface either returns a usable surface or one of
// the two sentinel errors (ErrSurfaceStale, ErrSurfaceCorrupt). It must
// never panic, never return an unclassified error, and never hand back
// a surface alongside an error. Seeds cover the valid blob plus the
// interesting manual corruptions (empty, truncations at every section
// boundary, flips in magic/version/hash/payload/checksum); the mutator
// grows the corpus from there. CI runs a bounded smoke
// (-fuzz=FuzzDecodeSurface -fuzztime=10s); the checked-in corpus under
// testdata/fuzz replays as part of the normal test suite.
func FuzzDecodeSurface(f *testing.F) {
	valid := fuzzSurfaceBlob()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("FSRF"))
	for _, n := range []int{1, 4, 8, 16, len(valid) / 2, len(valid) - 9, len(valid) - 1} {
		if n > 0 && n < len(valid) {
			f.Add(valid[:n])
		}
	}
	for _, i := range []int{0, 5, 13, 20, len(valid) / 2, len(valid) - 3} {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	f.Add(append(append([]byte(nil), valid...), 0xff))
	f.Add(fuzzSurfaceBlob("y"))

	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := DecodeSurface(bytes.NewReader(blob), fuzzConfigHash)
		if err != nil {
			if !errors.Is(err, ErrSurfaceStale) && !errors.Is(err, ErrSurfaceCorrupt) {
				t.Fatalf("unclassified decode error %v (want ErrSurfaceStale or ErrSurfaceCorrupt)", err)
			}
			if s != nil {
				t.Fatalf("non-nil surface returned alongside error %v", err)
			}
			return
		}
		if s == nil {
			t.Fatal("nil surface without error")
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
