package facs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"facs/internal/fuzzy"
	"facs/internal/snap"
)

// CacheInfo reports how a cached compile was satisfied.
type CacheInfo struct {
	// Path is the cache file that was read or (re)written.
	Path string
	// Hit reports that both surfaces were loaded from the cache and no
	// compilation happened.
	Hit bool
	// Stale reports that a cache entry existed but failed validation
	// (config-hash mismatch, older format version, or corruption) and
	// was recompiled and overwritten.
	Stale bool
}

func (i CacheInfo) String() string {
	switch {
	case i.Hit:
		return "hit " + i.Path
	case i.Stale:
		return "stale, recompiled " + i.Path
	default:
		return "miss, compiled " + i.Path
	}
}

// surfaceConfigHash fingerprints everything the compiled surfaces'
// content depends on: the compilation constants of this package (grid
// layout, pinned integer nodes, error-map safety factor and aligned
// axes — all functions of gridSize and the params), and the System
// configuration (membership break-points, accept threshold, handoff
// bias, defuzzifier type). The literal "tnorm=1|impl=1|res=201" stands
// for the fixed inference (min t-norm, clip implication, 201 samples),
// written byte for byte as it was formatted while those were options,
// so older cache entries stay valid; TestSurfaceConfigHashStable pins
// the result. Two systems with equal hashes compile byte-identical
// surfaces; a parameterised custom Defuzzifier whose type name does not
// change with its parameters is the one case the hash cannot see, so
// such systems must not share a cache directory.
func surfaceConfigHash(sys *System, gridSize int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "grid=%d|safety=%v|aligned=%v|", gridSize, float64(surfaceErrorSafety), flc2AlignedAxes)
	fmt.Fprintf(h, "params=%+v|", sys.params)
	fmt.Fprintf(h, "thr=%v|bias=%v|tnorm=1|impl=1|res=201|defuzz=%T",
		sys.acceptThreshold, sys.handoffBias, sys.mkDefuzz())
	return h.Sum64()
}

// cachePath names the cache entry for one grid size inside dir. The
// full configuration is validated via the embedded hash, not the file
// name, so a changed configuration at the same grid size is detected as
// stale and overwritten rather than accumulating files.
func cachePath(dir string, gridSize int) string {
	return filepath.Join(dir, fmt.Sprintf("facs-g%d.surfaces", gridSize))
}

// cacheKind is the snap envelope kind of a cache entry: FLC1's and
// FLC2's surface envelopes nested as two blobs, all under the same
// config hash.
const cacheKind = "facs-surfaces"

// loadCompiled reads both compiled surfaces from path, validates them
// against sys and assembles the controller. A checksum is not a secret
// and a config hash does not say which blob is which, so each surface
// must also be the one sys compiles at its place: the same output, the
// same inputs in order, finite values (the engines' outputs always
// are), an error map, and the same aligned axes (none for FLC1; R and
// Cs for FLC2). Any mismatch is reported as snap.ErrSnapshotCorrupt.
func loadCompiled(path string, wantHash uint64, sys *System) (*CompiledController, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := snap.NewDecoder(f, cacheKind, wantHash)
	if err != nil {
		return nil, err
	}
	blobs := [2][]byte{d.Blob(), d.Blob()}
	if err := d.Close(); err != nil {
		return nil, err
	}
	engines := [2]*fuzzy.Engine{sys.FLC1(), sys.FLC2()}
	aligned := [2][]string{nil, flc2AlignedAxes}
	var surfs [2]*fuzzy.Surface
	for i, b := range blobs {
		s, err := fuzzy.DecodeSurface(bytes.NewReader(b), wantHash)
		if err != nil {
			return nil, err
		}
		if err := matchSurface(s, engines[i], aligned[i]); err != nil {
			return nil, fmt.Errorf("%w: cached surface %d: %v", snap.ErrSnapshotCorrupt, i+1, err)
		}
		surfs[i] = s
	}
	c, err := newCompiledFromSurfaces(sys, surfs[0], surfs[1])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrSnapshotCorrupt, err)
	}
	return c, nil
}

// matchSurface checks that s was compiled from an engine shaped like e,
// holds finite values, and has an error map with the given aligned
// axes.
func matchSurface(s *fuzzy.Surface, e *fuzzy.Engine, aligned []string) error {
	if s.OutputName() != e.Output().Name() {
		return fmt.Errorf("%s encodes %q, want %q", s, s.OutputName(), e.Output().Name())
	}
	axes, inputs := s.Axes(), e.Inputs()
	if len(axes) != len(inputs) {
		return fmt.Errorf("%s has %d inputs, want %d", s, len(axes), len(inputs))
	}
	for i, ax := range axes {
		if ax.Name != inputs[i].Name() {
			return fmt.Errorf("%s input %d is %q, want %q", s, i, ax.Name, inputs[i].Name())
		}
	}
	if !s.FiniteValues() {
		return fmt.Errorf("%s holds a non-finite value", s)
	}
	if !s.HasErrorMap() {
		return fmt.Errorf("%s has no error map", s)
	}
	if got := s.AlignedAxes(); !slices.Equal(got, aligned) {
		return fmt.Errorf("%s has aligned axes %v, want %v", s, got, aligned)
	}
	return nil
}

// writeSurfaces persists both compiled surfaces with
// snap.WriteFileAtomic, so readers and a crash mid-write see either the
// previous entry or the complete new one.
func writeSurfaces(path string, c *CompiledController, hash uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	_, err := snap.WriteFileAtomic(path, func(w io.Writer) error {
		e := snap.NewEncoder(w, cacheKind, hash)
		for _, s := range []*fuzzy.Surface{c.surf1, c.surf2} {
			var buf bytes.Buffer
			if err := fuzzy.EncodeSurface(&buf, s, hash); err != nil {
				return err
			}
			e.Blob(buf.Bytes())
		}
		return e.Close()
	})
	return err
}

// CompileSystemCached is CompileSystem behind a load-or-compile surface
// cache: if dir holds a valid entry for this configuration (validated
// by format version, config+grid hash and checksum), both surfaces are
// decoded in milliseconds and no compilation happens; otherwise the
// surfaces are compiled exactly as CompileSystem does (seconds) and the
// entry is written for the next start. A stale or corrupt entry is
// recompiled and overwritten, never trusted. Cache write failures are
// not fatal: the freshly compiled controller is returned alongside the
// write error so a read-only cache directory degrades to plain
// compilation.
func CompileSystemCached(sys *System, gridSize int, dir string) (*CompiledController, CacheInfo, error) {
	if sys == nil {
		return nil, CacheInfo{}, fmt.Errorf("facs: compile needs a system")
	}
	if dir == "" {
		c, err := CompileSystem(sys, gridSize)
		return c, CacheInfo{}, err
	}
	if gridSize <= 0 {
		gridSize = DefaultSurfaceGridSize
	}
	hash := surfaceConfigHash(sys, gridSize)
	info := CacheInfo{Path: cachePath(dir, gridSize)}
	c, err := loadCompiled(info.Path, hash, sys)
	if err == nil {
		info.Hit = true
		return c, info, nil
	}
	// Anything but "no entry yet" means an entry existed and failed
	// validation; report it as stale so operators notice churn.
	if !errors.Is(err, fs.ErrNotExist) {
		info.Stale = true
	}
	c, err = CompileSystem(sys, gridSize)
	if err != nil {
		return nil, info, err
	}
	if err := writeSurfaces(info.Path, c, hash); err != nil {
		return c, info, fmt.Errorf("facs: compiled but could not write surface cache: %w", err)
	}
	return c, info, nil
}

// NewCompiledCached builds the exact System for the options and obtains
// its compiled controller through the surface cache in dir (see
// CompileSystemCached). An empty dir disables caching and always
// compiles.
func NewCompiledCached(gridSize int, dir string, opts ...Option) (*CompiledController, CacheInfo, error) {
	sys, err := New(opts...)
	if err != nil {
		return nil, CacheInfo{}, err
	}
	return CompileSystemCached(sys, gridSize, dir)
}
