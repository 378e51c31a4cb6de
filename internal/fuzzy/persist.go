package fuzzy

import (
	"fmt"
	"io"
	"math"

	"facs/internal/snap"
)

// surfaceKind is the snap envelope kind of a persisted surface.
const surfaceKind = "fuzzy-surface"

// maxEncodedAxisNodes bounds the per-axis node count accepted by the
// decoder.
const maxEncodedAxisNodes = 1 << 20

// maxEncodedTotalNodes bounds the node product across all axes (the
// value-table length). The checksum is not a secret, so a corrupt or
// crafted blob can carry a valid one; without this cap the per-axis
// products could overflow int and turn the downstream length checks
// into slice-bounds panics. 1<<24 nodes is a 128 MB table, far above
// any real surface (the default FACS tables are ~300k nodes).
const maxEncodedTotalNodes = 1 << 24

// EncodeSurface writes s to w as a snap envelope of kind
// "fuzzy-surface".
//
// configHash is an opaque caller-supplied fingerprint of everything the
// surface's content depends on — engine parameters, grid sizes, pinned
// nodes, error-map settings — and is validated by DecodeSurface, so a
// cache can detect that a persisted surface no longer matches the
// configuration it would be used for. The envelope's format version
// (snap.FormatVersion) and FNV-64a checksum detect layout changes,
// truncation and bit rot independently of the semantic hash.
//
// Payload, in snap's encodings:
//
//	name Str | nAxes U32
//	per axis: name Str | nodes F64s
//	values F64s (row-major over the axis product)
//	hasErrMap Bool | when set: aligned U32 | errs F64s
//
// aligned is the error map's aligned-axis mask (bit i for axis i), and
// errs has one entry per node along aligned axes and per cell along
// the others, row-major like values. Strides are not stored; the
// decoder rebuilds them from the axis shape exactly as NewSurface does.
func EncodeSurface(w io.Writer, s *Surface, configHash uint64) error {
	if s == nil {
		return fmt.Errorf("fuzzy: cannot encode a nil surface")
	}
	e := snap.NewEncoder(w, surfaceKind, configHash)
	e.Str(s.name)
	e.U32(uint32(len(s.axes)))
	for _, ax := range s.axes {
		e.Str(ax.Name)
		e.F64s(ax.nodes)
	}
	e.F64s(s.values)
	e.Bool(s.errs != nil)
	if s.errs != nil {
		e.U32(s.aligned)
		e.F64s(s.errs)
	}
	return e.Close()
}

// DecodeSurface reads a surface previously written by EncodeSurface.
// Every error wraps snap.ErrSnapshotStale (format version or the
// caller's expected configHash differ) or snap.ErrSnapshotCorrupt
// (bad magic, checksum, shape or content). The checksum is not a
// secret, so content is checked too: axis nodes must be finite and
// error bounds non-negative (+Inf allowed). Values are kept bit for bit
// whatever they are, as an engine may produce non-finite outputs; a
// NaN value propagates into every answer it touches, which guarded
// callers treat as uncertain. The rebuilt surface answers every query
// identically to the encoded one.
func DecodeSurface(r io.Reader, wantConfigHash uint64) (*Surface, error) {
	d, err := snap.NewDecoder(r, surfaceKind, wantConfigHash)
	if err != nil {
		return nil, err
	}
	s := &Surface{name: d.Str()}
	nAxes := int(d.U32())
	if nAxes < 1 || nAxes > maxSurfaceDims {
		d.Fail("%d axes", nAxes)
		nAxes = 0
	}
	s.axes = make([]SurfaceAxis, nAxes)
	s.strides = make([]int, nAxes)
	total := 1
	for i := range s.axes {
		name := d.Str()
		nodes := d.F64s()
		n := len(nodes)
		for j := 1; j < n; j++ {
			if !(nodes[j] > nodes[j-1]) {
				d.Fail("axis %q nodes are not strictly increasing", name)
			}
		}
		// Guard the product before multiplying: n >= 2 past the first
		// check, so the division is safe and overflow is impossible. The
		// error map is never longer than the value table, so this bounds
		// it too.
		switch {
		case n < 2 || n > maxEncodedAxisNodes:
			d.Fail("axis %q has %d nodes", name, n)
		case total > maxEncodedTotalNodes/n:
			d.Fail("declared grid exceeds %d nodes", maxEncodedTotalNodes)
		case !(nodes[n-1]-nodes[0] < math.Inf(1)): // also catches NaN
			d.Fail("axis %q spans [%v, %v], not a finite range", name, nodes[0], nodes[n-1])
		}
		if d.Err() != nil {
			break
		}
		s.axes[i] = newSurfaceAxis(name, nodes)
		total *= n
	}
	// Row-major layout, identical to NewSurface.
	stride := 1
	for i := nAxes - 1; i >= 0; i-- {
		s.strides[i] = stride
		stride *= s.axes[i].N()
	}
	if s.values = d.F64s(); len(s.values) != total {
		d.Fail("%d values for a %d-node grid", len(s.values), total)
	}
	if d.Bool() {
		aligned := d.U32()
		if aligned>>nAxes != 0 {
			d.Fail("aligned-axis mask %#x names axes beyond %d", aligned, nAxes)
		}
		s.errs = d.F64s()
		if n := s.initErrorMap(aligned); len(s.errs) != n {
			d.Fail("%d error bounds, want %d", len(s.errs), n)
		}
		// A bound below zero (or NaN) would make a guarded caller trust
		// a value it has no bound for; +Inf is a valid "never certain".
		for k, b := range s.errs {
			if !(b >= 0) {
				d.Fail("error bound %d is %v", k, b)
				break
			}
		}
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return s, nil
}
