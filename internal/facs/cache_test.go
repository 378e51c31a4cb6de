package facs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"facs/internal/gps"
	"facs/internal/snap"
)

// cacheTestGrid keeps cache-test compiles fast; correctness of the
// surfaces themselves is pinned by the golden-equivalence suite at the
// default grid.
const cacheTestGrid = 8

// cacheProbes are query points spread over the golden lattice and off
// it, used to compare a cached controller against a freshly compiled
// one.
var cacheProbes = []struct {
	obs     gps.Observation
	request int
	used    int
	handoff bool
}{
	{gps.Observation{SpeedKmh: 4, AngleDeg: 0, DistanceKm: 2}, 5, 0, false},
	{gps.Observation{SpeedKmh: 30, AngleDeg: 45, DistanceKm: 5}, 10, 20, false},
	{gps.Observation{SpeedKmh: 60, AngleDeg: -90, DistanceKm: 8}, 1, 35, false},
	{gps.Observation{SpeedKmh: 95, AngleDeg: 170, DistanceKm: 9.5}, 5, 30, true},
	{gps.Observation{SpeedKmh: 12.3, AngleDeg: 33.3, DistanceKm: 4.44}, 10, 7, false},
	{gps.Observation{SpeedKmh: 77.7, AngleDeg: -135, DistanceKm: 0.5}, 1, 39, true},
}

func assertSameAnswers(t *testing.T, want, got *CompiledController) {
	t.Helper()
	for _, p := range cacheProbes {
		a, err := want.Evaluate(p.obs, p.request, p.used, p.handoff)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Evaluate(p.obs, p.request, p.used, p.handoff)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("cached controller answers %+v at %+v, want %+v", b, p, a)
		}
	}
	// The whole golden lattice must agree, not just the probes: FLC1's
	// table is compared node by node through the public query path.
	axes := want.surf1.Axes()
	for _, s := range axes[0].Nodes() {
		for _, a := range axes[1].Nodes() {
			for _, d := range axes[2].Nodes() {
				wv, err := want.surf1.EvaluateVec(s, a, d)
				if err != nil {
					t.Fatal(err)
				}
				gv, err := got.surf1.EvaluateVec(s, a, d)
				if err != nil {
					t.Fatal(err)
				}
				if wv != gv {
					t.Fatalf("FLC1 lattice answer at (%v,%v,%v): %v, want %v", s, a, d, gv, wv)
				}
			}
		}
	}
}

// TestSurfaceConfigHashStable pins the cache key of the default system
// at the default grid, so a surface cache written by an earlier build
// keeps loading as a hit. A deliberate change to what the surfaces
// depend on must change this constant too.
func TestSurfaceConfigHashStable(t *testing.T) {
	const want = 0xa4de58e530b8fbb
	if got := surfaceConfigHash(Must(), DefaultSurfaceGridSize); got != want {
		t.Fatalf("surfaceConfigHash(Must(), %d) = %#x, want %#x", DefaultSurfaceGridSize, got, want)
	}
}

func TestSurfaceCacheMissThenHit(t *testing.T) {
	dir := t.TempDir()
	sys := Must()

	before := CompileCount()
	c1, info, err := CompileSystemCached(sys, cacheTestGrid, dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit || info.Stale {
		t.Fatalf("first build should be a clean miss, got %+v", info)
	}
	if got := CompileCount() - before; got != 1 {
		t.Fatalf("first build should compile exactly once, compiled %d times", got)
	}
	if _, err := os.Stat(info.Path); err != nil {
		t.Fatalf("cache entry not written: %v", err)
	}

	// Second start: loaded, not compiled — asserted via the counter.
	before = CompileCount()
	c2, info2, err := CompileSystemCached(Must(), cacheTestGrid, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Hit {
		t.Fatalf("second build should hit the cache, got %+v", info2)
	}
	if got := CompileCount() - before; got != 0 {
		t.Fatalf("cached startup must skip compilation, compiled %d times", got)
	}
	assertSameAnswers(t, c1, c2)
	if f, e := c2.Stats(); f+e < int64(len(cacheProbes)) {
		t.Fatalf("cached controller did not serve the probes: fast=%d exact=%d", f, e)
	}
}

func TestSurfaceCacheStaleEntryRecompiled(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := CompileSystemCached(Must(), cacheTestGrid, dir); err != nil {
		t.Fatal(err)
	}

	// A different configuration at the same grid size maps to the same
	// file but a different config hash: the entry must be rejected and
	// recompiled, never served.
	changed := Must(WithAcceptThreshold(0.4))
	before := CompileCount()
	c, info, err := CompileSystemCached(changed, cacheTestGrid, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Stale || info.Hit {
		t.Fatalf("changed config should report a stale entry, got %+v", info)
	}
	if got := CompileCount() - before; got != 1 {
		t.Fatalf("stale entry must recompile once, compiled %d times", got)
	}
	if c.AcceptThreshold() != 0.4 {
		t.Fatalf("recompiled controller has threshold %v, want 0.4", c.AcceptThreshold())
	}

	// The overwritten entry now serves the changed config...
	before = CompileCount()
	if _, info, err = CompileSystemCached(Must(WithAcceptThreshold(0.4)), cacheTestGrid, dir); err != nil {
		t.Fatal(err)
	}
	if !info.Hit || CompileCount() != before {
		t.Fatalf("overwritten entry should now hit, got %+v", info)
	}
	// ...and the original config sees it as stale in turn.
	if _, info, err = CompileSystemCached(Must(), cacheTestGrid, dir); err != nil {
		t.Fatal(err)
	}
	if !info.Stale {
		t.Fatalf("original config should find the overwritten entry stale, got %+v", info)
	}
}

func TestSurfaceCacheCorruptEntryRecompiled(t *testing.T) {
	dir := t.TempDir()
	_, info, err := CompileSystemCached(Must(), cacheTestGrid, dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0x10
	if err := os.WriteFile(info.Path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	before := CompileCount()
	fresh, info2, err := CompileSystemCached(Must(), cacheTestGrid, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Stale {
		t.Fatalf("corrupt entry should be reported stale, got %+v", info2)
	}
	if got := CompileCount() - before; got != 1 {
		t.Fatalf("corrupt entry must recompile once, compiled %d times", got)
	}
	ref, err := CompileSystem(Must(), cacheTestGrid)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, ref, fresh)
}

func TestSurfaceCacheGridSizeIsPartOfKey(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := CompileSystemCached(Must(), cacheTestGrid, dir); err != nil {
		t.Fatal(err)
	}
	_, info, err := CompileSystemCached(Must(), cacheTestGrid+1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit || info.Stale {
		t.Fatalf("different grid size should be a distinct clean miss, got %+v", info)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "facs-g*.surfaces"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("expected one entry per grid size, found %v", entries)
	}
}

func TestSurfaceCacheUnwritableDirDegradesToCompilation(t *testing.T) {
	// The cache "directory" is actually a file, so both the read and
	// the write fail. The compiled controller must still be returned
	// alongside the write error (the documented non-fatal contract a
	// read-only cache directory relies on).
	parent := t.TempDir()
	dir := filepath.Join(parent, "not-a-dir")
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, info, err := CompileSystemCached(Must(), cacheTestGrid, dir)
	if err == nil {
		t.Fatal("expected a cache-write error")
	}
	if c == nil {
		t.Fatalf("compiled controller must survive the cache-write failure: %v", err)
	}
	if info.Hit {
		t.Fatalf("unreadable entry cannot be a hit: %+v", info)
	}
	if _, err := c.Evaluate(cacheProbes[0].obs, cacheProbes[0].request, cacheProbes[0].used, cacheProbes[0].handoff); err != nil {
		t.Fatalf("returned controller is not usable: %v", err)
	}
}

func TestSurfaceCacheEmptyDirCompiles(t *testing.T) {
	before := CompileCount()
	c, info, err := CompileSystemCached(Must(), cacheTestGrid, "")
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || info.Hit || info.Path != "" {
		t.Fatalf("empty dir should compile without caching, got %+v", info)
	}
	if got := CompileCount() - before; got != 1 {
		t.Fatalf("compiled %d times, want 1", got)
	}
}

// TestSurfaceCacheV1EntryRecompiled: a cache entry written in the
// version 1 surface format (hex-framed pre-envelope blobs, before the
// FLC2 error map became node-aligned) never decodes; CompileSystemCached
// reports it stale, recompiles it, rewrites the entry in the current
// format, and the next start hits.
func TestSurfaceCacheV1EntryRecompiled(t *testing.T) {
	const grid = 2 // the fixture's grid size
	old, err := os.ReadFile("testdata/facs-g2-v1.surfaces")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := cachePath(dir, grid)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if s1, s2, err := loadSurfaces(path, surfaceConfigHash(Must(), grid)); !errors.Is(err, snap.ErrSnapshotCorrupt) || s1 != nil || s2 != nil {
		t.Fatalf("version 1 entry loads as (%v, %v, %v), want snap.ErrSnapshotCorrupt", s1, s2, err)
	}

	before := CompileCount()
	c, info, err := CompileSystemCached(Must(), grid, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Stale || info.Hit {
		t.Fatalf("version 1 entry should report stale, got %+v", info)
	}
	if got := CompileCount() - before; got != 1 {
		t.Fatalf("version 1 entry must recompile once, compiled %d times", got)
	}
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rewritten, old) {
		t.Fatal("version 1 entry was not rewritten")
	}

	before = CompileCount()
	warm, info, err := CompileSystemCached(Must(), grid, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit || CompileCount() != before {
		t.Fatalf("rewritten entry should hit, got %+v", info)
	}
	assertSameAnswers(t, c, warm)
}
