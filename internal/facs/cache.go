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

	"facs/internal/fuzzy"
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
// content depends on: the persistence format version, the compilation
// constants of this package (grid layout, pinned integer nodes,
// error-map safety factor and aligned axes — all functions of gridSize
// and the params),
// and the System configuration (membership break-points, accept
// threshold, handoff bias, inference operators, defuzzifier type and
// resolution). Two systems with equal hashes compile byte-identical
// surfaces; a parameterised custom Defuzzifier whose type name does not
// change with its parameters is the one case the hash cannot see, so
// such systems must not share a cache directory.
func surfaceConfigHash(sys *System, gridSize int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "fmt=%d|grid=%d|safety=%v|aligned=%v|", fuzzy.SurfaceFormatVersion, gridSize, float64(surfaceErrorSafety), flc2AlignedAxes)
	fmt.Fprintf(h, "params=%+v|", sys.params)
	fmt.Fprintf(h, "thr=%v|bias=%v|tnorm=%d|impl=%d|res=%d|defuzz=%T",
		sys.acceptThreshold, sys.handoffBias, sys.tnorm, sys.implication, sys.resolution, sys.mkDefuzz())
	return h.Sum64()
}

// cachePath names the cache entry for one grid size inside dir. The
// full configuration is validated via the embedded hash, not the file
// name, so a changed configuration at the same grid size is detected as
// stale and overwritten rather than accumulating files.
func cachePath(dir string, gridSize int) string {
	return filepath.Join(dir, fmt.Sprintf("facs-g%d.surfaces", gridSize))
}

// loadSurfaces reads and validates both compiled surfaces from path.
func loadSurfaces(path string, wantHash uint64) (surf1, surf2 *fuzzy.Surface, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	// The file holds two length-framed surface blobs: FLC1 then FLC2.
	for i, dst := range []**fuzzy.Surface{&surf1, &surf2} {
		var n int64
		if _, err := fmt.Fscanf(f, "%016x\n", &n); err != nil {
			return nil, nil, fmt.Errorf("%w: reading frame %d header: %v", fuzzy.ErrSurfaceCorrupt, i, err)
		}
		s, err := fuzzy.DecodeSurface(io.LimitReader(f, n), wantHash)
		if err != nil {
			return nil, nil, err
		}
		if !s.HasErrorMap() {
			return nil, nil, fmt.Errorf("%w: cached surface %s has no error map", fuzzy.ErrSurfaceCorrupt, s)
		}
		*dst = s
	}
	return surf1, surf2, nil
}

// writeSurfaces persists both compiled surfaces atomically: encode into
// a temp file in the same directory, then rename over the final path,
// so concurrent readers never observe a partial entry.
func writeSurfaces(path string, c *CompiledController, hash uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	for _, s := range []*fuzzy.Surface{c.surf1, c.surf2} {
		var buf bytes.Buffer
		if err := fuzzy.EncodeSurface(&buf, s, hash); err != nil {
			tmp.Close()
			return err
		}
		if _, err := fmt.Fprintf(tmp, "%016x\n", int64(buf.Len())); err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(buf.Bytes()); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
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
	surf1, surf2, err := loadSurfaces(info.Path, hash)
	if err == nil {
		info.Hit = true
		return newCompiledFromSurfaces(sys, surf1, surf2), info, nil
	}
	// Anything but "no entry yet" means an entry existed and failed
	// validation; report it as stale so operators notice churn.
	if !errors.Is(err, fs.ErrNotExist) {
		info.Stale = true
	}
	c, err := CompileSystem(sys, gridSize)
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
