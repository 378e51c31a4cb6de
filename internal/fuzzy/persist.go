package fuzzy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
)

// SurfaceFormatVersion is the on-disk format version written by
// EncodeSurface. Bump it whenever the byte layout below changes; a
// decoder only accepts blobs of exactly this version, so every consumer
// of a persisted surface recompiles after a format change instead of
// misreading old bytes.
//
// Version 2 added the aligned-axis mask of the error map
// (WithSurfaceAlignedAxes); version 1 blobs decode as ErrSurfaceStale.
const SurfaceFormatVersion = 2

// surfaceMagic identifies a persisted surface blob.
var surfaceMagic = [4]byte{'F', 'S', 'R', 'F'}

// Persistence sentinel errors. Callers that implement a load-or-compile
// cache treat both as a cache miss: the entry is discarded and the
// surface recompiled from the exact engine.
var (
	// ErrSurfaceStale reports that a blob was written for a different
	// configuration (config hash mismatch) or an older format version.
	ErrSurfaceStale = errors.New("fuzzy: persisted surface is stale")
	// ErrSurfaceCorrupt reports structural damage: bad magic, truncated
	// payload or checksum mismatch.
	ErrSurfaceCorrupt = errors.New("fuzzy: persisted surface is corrupt")
)

// maxEncodedAxisNodes bounds the per-axis node count accepted by the
// decoder, guarding the allocation against corrupt length fields.
const maxEncodedAxisNodes = 1 << 20

// maxEncodedTotalNodes bounds the node product across all axes (the
// value-table length). The checksum is not a secret, so a corrupt or
// crafted blob can carry a valid one; without this cap the per-axis
// products could overflow int and turn the downstream length checks
// into slice-bounds panics. 1<<24 nodes is a 128 MB table, far above
// any real surface (the default FACS tables are ~300k nodes).
const maxEncodedTotalNodes = 1 << 24

// EncodeSurface writes s to w in the versioned binary surface format.
//
// configHash is an opaque caller-supplied fingerprint of everything the
// surface's content depends on — engine parameters, grid sizes, pinned
// nodes, error-map settings — and is validated by DecodeSurface, so a
// cache can detect that a persisted surface no longer matches the
// configuration it would be used for. The blob additionally carries an
// FNV-64a checksum over the entire payload, so truncation or bit rot is
// detected independently of the semantic hash.
//
// Layout (all integers little-endian):
//
//	magic "FSRF" | version u32 | configHash u64 | name | nAxes u32
//	per axis: name | nNodes u32 | nodes []f64
//	values []f64 (length implied by the axis product)
//	hasErrMap u8 | when hasErrMap=1: aligned u32 | errs []f64
//	checksum u64 (FNV-64a of every preceding byte)
//
// aligned is the error map's aligned-axis mask (bit i for axis i), and
// errs has one entry per node along aligned axes and per cell along
// the others, row-major like values. Strings are a u32 length plus raw
// bytes. Strides are not stored; the decoder rebuilds them from the
// axis shape exactly as NewSurface does.
func EncodeSurface(w io.Writer, s *Surface, configHash uint64) error {
	if s == nil {
		return fmt.Errorf("fuzzy: cannot encode a nil surface")
	}
	h := fnv.New64a()
	mw := io.MultiWriter(w, h)

	if _, err := mw.Write(surfaceMagic[:]); err != nil {
		return err
	}
	if err := writeU32(mw, SurfaceFormatVersion); err != nil {
		return err
	}
	if err := writeU64(mw, configHash); err != nil {
		return err
	}
	if err := writeString(mw, s.name); err != nil {
		return err
	}
	if err := writeU32(mw, uint32(len(s.axes))); err != nil {
		return err
	}
	for _, ax := range s.axes {
		if err := writeString(mw, ax.Name); err != nil {
			return err
		}
		if err := writeU32(mw, uint32(len(ax.nodes))); err != nil {
			return err
		}
		if err := writeFloats(mw, ax.nodes); err != nil {
			return err
		}
	}
	if err := writeFloats(mw, s.values); err != nil {
		return err
	}
	hasErr := byte(0)
	if s.errs != nil {
		hasErr = 1
	}
	if _, err := mw.Write([]byte{hasErr}); err != nil {
		return err
	}
	if s.errs != nil {
		if err := writeU32(mw, s.aligned); err != nil {
			return err
		}
		if err := writeFloats(mw, s.errs); err != nil {
			return err
		}
	}
	// The checksum is written to w only: it covers everything before it.
	return writeU64(w, h.Sum64())
}

// DecodeSurface reads a surface previously written by EncodeSurface and
// validates it: magic and checksum guard against corruption
// (ErrSurfaceCorrupt), the format version and the caller's expected
// configHash guard against staleness (ErrSurfaceStale). The rebuilt
// surface answers every query identically to the encoded one.
func DecodeSurface(r io.Reader, wantConfigHash uint64) (*Surface, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(blob) < len(surfaceMagic)+4+8+8 {
		return nil, fmt.Errorf("%w: %d-byte blob is too short", ErrSurfaceCorrupt, len(blob))
	}
	payload, sum := blob[:len(blob)-8], binary.LittleEndian.Uint64(blob[len(blob)-8:])
	h := fnv.New64a()
	h.Write(payload)
	if h.Sum64() != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSurfaceCorrupt)
	}
	d := &surfaceDecoder{buf: payload}
	var magic [4]byte
	d.bytes(magic[:])
	if magic != surfaceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSurfaceCorrupt, magic[:])
	}
	if v := d.u32(); v != SurfaceFormatVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrSurfaceStale, v, SurfaceFormatVersion)
	}
	if got := d.u64(); got != wantConfigHash {
		return nil, fmt.Errorf("%w: config hash %#x, want %#x", ErrSurfaceStale, got, wantConfigHash)
	}
	s := &Surface{name: d.str()}
	nAxes := int(d.u32())
	if d.err == nil && (nAxes < 1 || nAxes > maxSurfaceDims) {
		return nil, fmt.Errorf("%w: %d axes", ErrSurfaceCorrupt, nAxes)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSurfaceCorrupt, d.err)
	}
	s.axes = make([]SurfaceAxis, nAxes)
	s.strides = make([]int, nAxes)
	total := 1
	for i := range s.axes {
		name := d.str()
		n := int(d.u32())
		if d.err == nil && (n < 2 || n > maxEncodedAxisNodes) {
			return nil, fmt.Errorf("%w: axis %q has %d nodes", ErrSurfaceCorrupt, name, n)
		}
		if d.err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSurfaceCorrupt, d.err)
		}
		nodes := d.floats(n)
		for j := 1; j < len(nodes); j++ {
			if !(nodes[j] > nodes[j-1]) {
				return nil, fmt.Errorf("%w: axis %q nodes are not strictly increasing", ErrSurfaceCorrupt, name)
			}
		}
		s.axes[i] = SurfaceAxis{Name: name, nodes: nodes}
		// Guard the product before multiplying: n >= 2 here, so the
		// division is safe and overflow is impossible. The error map is
		// never longer than the value table, so this bounds it too.
		if total > maxEncodedTotalNodes/n {
			return nil, fmt.Errorf("%w: declared grid exceeds %d nodes", ErrSurfaceCorrupt, maxEncodedTotalNodes)
		}
		total *= n
	}
	// Row-major layout, identical to NewSurface.
	stride := 1
	for i := nAxes - 1; i >= 0; i-- {
		s.strides[i] = stride
		stride *= s.axes[i].N()
	}
	s.values = d.floats(total)
	hasErr := d.byte()
	if hasErr == 1 {
		aligned := d.u32()
		if d.err == nil && aligned>>nAxes != 0 {
			return nil, fmt.Errorf("%w: aligned-axis mask %#x names axes beyond %d", ErrSurfaceCorrupt, aligned, nAxes)
		}
		s.errs = d.floats(s.initErrorMap(aligned))
	} else if d.err == nil && hasErr != 0 {
		return nil, fmt.Errorf("%w: bad error-map flag %d", ErrSurfaceCorrupt, hasErr)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSurfaceCorrupt, d.err)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSurfaceCorrupt, len(d.buf))
	}
	return s, nil
}

// surfaceDecoder is a cursor over the checksum-validated payload. The
// first short read latches err; subsequent reads return zero values so
// callers can check d.err at natural points instead of after every read.
type surfaceDecoder struct {
	buf []byte
	err error
}

func (d *surfaceDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = fmt.Errorf("truncated payload: need %d bytes, have %d", n, len(d.buf))
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *surfaceDecoder) bytes(dst []byte) {
	if b := d.take(len(dst)); b != nil {
		copy(dst, b)
	}
}

func (d *surfaceDecoder) byte() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *surfaceDecoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *surfaceDecoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *surfaceDecoder) str() string {
	n := int(d.u32())
	if d.err == nil && n > len(d.buf) {
		d.err = fmt.Errorf("truncated string: %d bytes declared, %d left", n, len(d.buf))
		return ""
	}
	return string(d.take(n))
}

func (d *surfaceDecoder) floats(n int) []float64 {
	b := d.take(8 * n)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeString(w io.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func writeFloats(w io.Writer, vals []float64) error {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	_, err := w.Write(buf)
	return err
}
