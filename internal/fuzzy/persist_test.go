package fuzzy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
)

// encodeRoundTrip encodes s and decodes it back, failing the test on
// either error.
func encodeRoundTrip(t *testing.T, s *Surface, hash uint64) *Surface {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSurface(&buf, s, hash); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSurface(&buf, hash)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSurfacePersistRoundTrip(t *testing.T) {
	e := surfTestEngine(t)
	s, err := NewSurface(e, WithSurfaceGrid(9, 7), WithSurfaceErrorMap(2))
	if err != nil {
		t.Fatal(err)
	}
	got := encodeRoundTrip(t, s, 0xfeedc0de)

	if got.String() != s.String() {
		t.Fatalf("decoded surface is %s, want %s", got, s)
	}
	if !got.HasErrorMap() {
		t.Fatal("decoded surface lost its error map")
	}
	if !reflect.DeepEqual(got.Axes(), s.Axes()) {
		t.Fatal("decoded axes differ")
	}
	// The decoded surface must answer identically everywhere: on the
	// grid nodes (the golden lattice) and at off-node query points,
	// including the per-cell error bounds.
	axes := s.Axes()
	for _, xv := range axes[0].Nodes() {
		for _, yv := range axes[1].Nodes() {
			want, _, err := s.EvaluateVecWithBound(xv, yv)
			if err != nil {
				t.Fatal(err)
			}
			have, _, err := got.EvaluateVecWithBound(xv, yv)
			if err != nil {
				t.Fatal(err)
			}
			if have != want {
				t.Fatalf("decoded surface(%v, %v) = %v, want %v", xv, yv, have, want)
			}
		}
	}
	for i := 0; i < 200; i++ {
		xv := 10 * (float64(i) + 0.31) / 201
		yv := (float64(i%17) + 0.77) / 18
		wantV, wantB, err := s.EvaluateVecWithBound(xv, yv)
		if err != nil {
			t.Fatal(err)
		}
		haveV, haveB, err := got.EvaluateVecWithBound(xv, yv)
		if err != nil {
			t.Fatal(err)
		}
		if haveV != wantV || haveB != wantB {
			t.Fatalf("decoded surface(%v, %v) = (%v, %v), want (%v, %v)", xv, yv, haveV, haveB, wantV, wantB)
		}
	}
}

// TestSurfacePersistAlignedRoundTrip: a node-aligned error map survives
// encode/decode bit for bit — the decoded surface re-encodes to the same
// bytes and answers every query, its +Inf off-node bounds included,
// identically.
func TestSurfacePersistAlignedRoundTrip(t *testing.T) {
	_, s := alignedTestSurface(t, 2)
	var buf bytes.Buffer
	if err := EncodeSurface(&buf, s, 0xa11e); err != nil {
		t.Fatal(err)
	}
	blob := append([]byte(nil), buf.Bytes()...)
	got, err := DecodeSurface(&buf, 0xa11e)
	if err != nil {
		t.Fatal(err)
	}
	if got.aligned != s.aligned || !reflect.DeepEqual(got.errStrides, s.errStrides) {
		t.Fatalf("decoded aligned mask %#x strides %v, want %#x %v", got.aligned, got.errStrides, s.aligned, s.errStrides)
	}
	var again bytes.Buffer
	if err := EncodeSurface(&again, got, 0xa11e); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), blob) {
		t.Fatal("decoded aligned surface re-encodes to different bytes")
	}
	for i := 0; i < 400; i++ {
		xv := 10 * (float64(i) + 0.31) / 401
		yv := float64(i%23) / 20 // on and off the tenths, and clamped
		wantV, wantB, _ := s.EvaluateVecWithBound(xv, yv)
		haveV, haveB, _ := got.EvaluateVecWithBound(xv, yv)
		if math.Float64bits(haveV) != math.Float64bits(wantV) || math.Float64bits(haveB) != math.Float64bits(wantB) {
			t.Fatalf("decoded surface(%v, %v) = (%v, %v), want (%v, %v)", xv, yv, haveV, haveB, wantV, wantB)
		}
	}
}

// TestSurfacePersistV1IsStale: a blob in the version 1 layout (no
// aligned-axis mask), as written before SurfaceFormatVersion 2, decodes
// as stale, so caches recompile it.
func TestSurfacePersistV1IsStale(t *testing.T) {
	blob, err := os.ReadFile("testdata/surface-v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(blob[4:]); v != 1 {
		t.Fatalf("fixture has format version %d, want 1", v)
	}
	s, err := DecodeSurface(bytes.NewReader(blob), fuzzConfigHash)
	if !errors.Is(err, ErrSurfaceStale) || s != nil {
		t.Fatalf("version 1 blob: got (%v, %v), want ErrSurfaceStale", s, err)
	}
}

func TestSurfacePersistWithoutErrorMap(t *testing.T) {
	e := surfTestEngine(t)
	s, err := NewSurface(e, WithSurfaceGrid(5))
	if err != nil {
		t.Fatal(err)
	}
	got := encodeRoundTrip(t, s, 7)
	if got.HasErrorMap() {
		t.Fatal("decoded surface invented an error map")
	}
	v1, err := s.EvaluateVec(3.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := got.EvaluateVec(3.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("decoded surface answers %v, want %v", v2, v1)
	}
}

func TestSurfacePersistStaleHash(t *testing.T) {
	e := surfTestEngine(t)
	s, err := NewSurface(e, WithSurfaceGrid(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeSurface(&buf, s, 111); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSurface(bytes.NewReader(buf.Bytes()), 222); !errors.Is(err, ErrSurfaceStale) {
		t.Fatalf("decode with wrong config hash: got %v, want ErrSurfaceStale", err)
	}
}

func TestSurfacePersistRejectsCorruption(t *testing.T) {
	e := surfTestEngine(t)
	s, err := NewSurface(e, WithSurfaceGrid(5), WithSurfaceErrorMap(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeSurface(&buf, s, 42); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeSurface(bytes.NewReader(blob[:len(blob)/2]), 42); !errors.Is(err, ErrSurfaceCorrupt) {
			t.Fatalf("got %v, want ErrSurfaceCorrupt", err)
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)/2] ^= 0x40
		if _, err := DecodeSurface(bytes.NewReader(bad), 42); !errors.Is(err, ErrSurfaceCorrupt) {
			t.Fatalf("got %v, want ErrSurfaceCorrupt", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0] = 'X'
		// Re-fix the checksum so only the magic is wrong.
		fixChecksum(bad)
		if _, err := DecodeSurface(bytes.NewReader(bad), 42); !errors.Is(err, ErrSurfaceCorrupt) {
			t.Fatalf("got %v, want ErrSurfaceCorrupt", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[4:], SurfaceFormatVersion+1)
		fixChecksum(bad)
		if _, err := DecodeSurface(bytes.NewReader(bad), 42); !errors.Is(err, ErrSurfaceStale) {
			t.Fatalf("got %v, want ErrSurfaceStale", err)
		}
	})
	t.Run("aligned mask beyond the axes", func(t *testing.T) {
		// The mask sits right after the hasErrMap byte, ahead of the
		// error map; the surface has two axes.
		errBytes := 8 * len(s.errs)
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[len(bad)-8-errBytes-4:], 1<<2)
		fixChecksum(bad)
		if _, err := DecodeSurface(bytes.NewReader(bad), 42); !errors.Is(err, ErrSurfaceCorrupt) {
			t.Fatalf("got %v, want ErrSurfaceCorrupt", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		// Valid payload, valid checksum position, but extra bytes spliced
		// in before the checksum would fail the checksum; instead append
		// beyond it so the payload grows and the checksum shifts.
		bad := append(append([]byte(nil), blob...), 0, 0, 0, 0)
		if _, err := DecodeSurface(bytes.NewReader(bad), 42); !errors.Is(err, ErrSurfaceCorrupt) {
			t.Fatalf("got %v, want ErrSurfaceCorrupt", err)
		}
	})
}

// fixChecksum recomputes the trailing FNV-64a checksum of a mutated
// blob so tests can target the semantic validation behind it.
func fixChecksum(blob []byte) {
	payload := blob[:len(blob)-8]
	var h uint64 = 14695981039346656037
	for _, b := range payload {
		h ^= uint64(b)
		h *= 1099511628211
	}
	binary.LittleEndian.PutUint64(blob[len(blob)-8:], h)
}

func TestSurfacePersistRejectsOverflowingGrid(t *testing.T) {
	// A crafted blob can carry a valid checksum (it is not a secret),
	// so declared axis sizes whose product overflows must be rejected
	// as corrupt, not trusted into a slice-bounds panic: 6 axes of 256
	// nodes declare 2^48 table entries.
	var buf bytes.Buffer
	buf.Write([]byte{'F', 'S', 'R', 'F'})
	var u32 [4]byte
	var u64 [8]byte
	putU32 := func(v uint32) { binary.LittleEndian.PutUint32(u32[:], v); buf.Write(u32[:]) }
	putU64 := func(v uint64) { binary.LittleEndian.PutUint64(u64[:], v); buf.Write(u64[:]) }
	putU32(SurfaceFormatVersion)
	putU64(9) // config hash
	putU32(1) // name "z"
	buf.WriteByte('z')
	putU32(6) // axes
	for ax := 0; ax < 6; ax++ {
		putU32(1) // axis name
		buf.WriteByte(byte('a' + ax))
		putU32(256)
		for i := 0; i < 256; i++ {
			putU64(math.Float64bits(float64(i)))
		}
	}
	blob := append(buf.Bytes(), 0, 0, 0, 0, 0, 0, 0, 0)
	fixChecksum(blob)
	if _, err := DecodeSurface(bytes.NewReader(blob), 9); !errors.Is(err, ErrSurfaceCorrupt) {
		t.Fatalf("overflowing grid should be corrupt, got %v", err)
	}
}

func TestSurfacePersistNaNValues(t *testing.T) {
	// Float payloads must survive byte-exactly, including non-finite
	// values an exotic engine could produce.
	s := &Surface{
		name:    "w",
		axes:    []SurfaceAxis{{Name: "x", nodes: []float64{0, 1}}},
		strides: []int{1},
		values:  []float64{math.Inf(1), math.NaN()},
	}
	var buf bytes.Buffer
	if err := EncodeSurface(&buf, s, 1); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSurface(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.values[0], 1) || !math.IsNaN(got.values[1]) {
		t.Fatalf("non-finite values not preserved: %v", got.values)
	}
}
