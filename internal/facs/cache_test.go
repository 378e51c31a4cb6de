package facs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"facs/internal/fuzzy"
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
	st := newGoldenStation(t)
	for _, p := range cacheProbes {
		// Both surfaces, value and bound, then the decision.
		var answers [2][4]float64
		for i, c := range []*CompiledController{want, got} {
			cv, b1, err := c.surf1.EvaluateVecWithBound(p.obs.SpeedKmh, p.obs.AngleDeg, p.obs.DistanceKm)
			if err != nil {
				t.Fatal(err)
			}
			ar, b2, err := c.surf2.EvaluateVecWithBound(cv, float64(p.request), float64(p.used))
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = [4]float64{cv, b1, ar, b2}
		}
		if answers[0] != answers[1] {
			t.Fatalf("cached surfaces answer (Cv, b1, A/R, b2) = %v at %+v, want %v", answers[1], p, answers[0])
		}
		req := st.request(t, p.obs, p.request, p.used, p.handoff)
		a, err := want.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("cached controller decides %v at %+v, want %v", b, p, a)
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
	p := cacheProbes[0]
	if _, err := c.Decide(newGoldenStation(t).request(t, p.obs, p.request, p.used, p.handoff)); err != nil {
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
	if c, err := loadCompiled(path, surfaceConfigHash(Must(), grid), Must()); !errors.Is(err, snap.ErrSnapshotCorrupt) || c != nil {
		t.Fatalf("version 1 entry loads as (%v, %v), want snap.ErrSnapshotCorrupt", c, err)
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

// rewriteCacheEntry re-encodes the cache entry at path, checksums
// included, after edit has changed its two nested surface blobs: the
// envelope stays valid, so only the content checks can refuse it.
func rewriteCacheEntry(t *testing.T, path string, hash uint64, edit func(blobs [][]byte)) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.NewDecoder(f, cacheKind, hash)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	blobs := [][]byte{d.Blob(), d.Blob()}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	edit(blobs)
	var buf bytes.Buffer
	e := snap.NewEncoder(&buf, cacheKind, hash)
	for _, b := range blobs {
		e.Blob(b)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertRecompiled requires CompileSystemCached to report the entry in
// dir stale, compile once, and answer like a fresh compile.
func assertRecompiled(t *testing.T, dir string) {
	t.Helper()
	before := CompileCount()
	c, info, err := CompileSystemCached(Must(), cacheTestGrid, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Stale || info.Hit {
		t.Fatalf("tampered entry should report stale, got %+v", info)
	}
	if got := CompileCount() - before; got != 1 {
		t.Fatalf("tampered entry must recompile once, compiled %d times", got)
	}
	ref, err := CompileSystem(Must(), cacheTestGrid)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, ref, c)
}

// TestSurfaceCacheBadContentRecompiled: an entry whose content is
// edited behind valid checksums must be reported stale and recompiled.
// With every error bound scaled by −50 the guard bands turn negative
// and the compiled path would trust interpolated values near the
// threshold and flip decisions; with NaN node values every decision
// would silently take the exact fallback.
func TestSurfaceCacheBadContentRecompiled(t *testing.T) {
	ref, err := CompileSystem(Must(), cacheTestGrid)
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(b []byte, s *fuzzy.Surface){
		"negative bounds": func(b []byte, s *fuzzy.Surface) {
			// The error map is the last section of a surface payload,
			// right before the 8-byte checksum.
			scaleFloats(b, len(b)-8, errorMapLen(s), -50)
		},
		"NaN values": func(b []byte, s *fuzzy.Surface) {
			// The values precede the error map's has-map flag, aligned
			// mask and count.
			scaleFloats(b, len(b)-8-8*errorMapLen(s)-4-4-1, s.NumNodes(), math.NaN())
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			_, info, err := CompileSystemCached(Must(), cacheTestGrid, dir)
			if err != nil {
				t.Fatal(err)
			}
			hash := surfaceConfigHash(Must(), cacheTestGrid)
			rewriteCacheEntry(t, info.Path, hash, func(blobs [][]byte) {
				for i, s := range []*fuzzy.Surface{ref.surf1, ref.surf2} {
					b := blobs[i]
					edit(b, s)
					h := fnv.New64a()
					h.Write(b[:len(b)-8])
					binary.LittleEndian.PutUint64(b[len(b)-8:], h.Sum64())
				}
			})
			assertRecompiled(t, dir)
		})
	}
}

// scaleFloats multiplies the n float64s that end at byte end of b by k.
func scaleFloats(b []byte, end, n int, k float64) {
	for off := end - 8*n; off < end; off += 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(k*v))
	}
}

// errorMapLen is the number of error bounds s carries: one per node
// along its aligned axes and one per cell along the others.
func errorMapLen(s *fuzzy.Surface) int {
	aligned := s.AlignedAxes()
	n := 1
	for _, ax := range s.Axes() {
		if slices.Contains(aligned, ax.Name) {
			n *= ax.N()
		} else {
			n *= ax.N() - 1
		}
	}
	return n
}

// TestSurfaceCacheSwappedSurfacesRecompiled: an entry with the FLC1 and
// FLC2 blobs swapped carries valid checksums and the right config hash,
// but would send every decision to the exact fallback (or fail to build
// the FLC1 cell ranges). It must be reported stale and recompiled.
func TestSurfaceCacheSwappedSurfacesRecompiled(t *testing.T) {
	dir := t.TempDir()
	_, info, err := CompileSystemCached(Must(), cacheTestGrid, dir)
	if err != nil {
		t.Fatal(err)
	}
	rewriteCacheEntry(t, info.Path, surfaceConfigHash(Must(), cacheTestGrid), func(blobs [][]byte) {
		blobs[0], blobs[1] = blobs[1], blobs[0]
	})
	assertRecompiled(t, dir)

	// The shape check itself tells each surface from the other and from
	// a wrong aligned-axis mask.
	c, sys := goldenCompiled(t), Must()
	for _, tc := range []struct {
		s       *fuzzy.Surface
		e       *fuzzy.Engine
		aligned []string
		ok      bool
	}{
		{c.surf1, sys.FLC1(), nil, true},
		{c.surf2, sys.FLC2(), flc2AlignedAxes, true},
		{c.surf2, sys.FLC1(), nil, false},
		{c.surf1, sys.FLC2(), flc2AlignedAxes, false},
		{c.surf1, sys.FLC1(), flc2AlignedAxes, false},
		{c.surf2, sys.FLC2(), nil, false},
	} {
		if err := matchSurface(tc.s, tc.e, tc.aligned); (err == nil) != tc.ok {
			t.Errorf("matchSurface(%s, %s, %v) = %v, want ok %v", tc.s, tc.e.Output().Name(), tc.aligned, err, tc.ok)
		}
	}
}
