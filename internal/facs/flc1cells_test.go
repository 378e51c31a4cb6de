package facs

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"facs/internal/cac"
)

// subCellWords returns the sub-cell store's contents by key.
func subCellWords(f *flc1Cells) map[uint64]uint64 {
	out := map[uint64]uint64{}
	for i := range f.subs {
		if k := f.subs[i].key.Load(); k != 0 {
			out[k] = f.subs[i].word.Load()
		}
	}
	return out
}

// TestCompiledRacingFillsMatchSequential: four goroutines decide
// overlapping halves of a request stream on one fresh controller, so
// they race to enclose the same cells and sub-cells. Every verdict must
// be the exact System's, and the filled cell table and sub-cell store
// must equal a sequential fill's word for word, with the same enclosure
// counts.
func TestCompiledRacingFillsMatchSequential(t *testing.T) {
	reqs := batchWorkload(t, rand.New(rand.NewSource(31)), 6000)
	sys := Must()
	want := make([]cac.Decision, len(reqs))
	if err := sys.DecideBatchInto(reqs, want); err != nil {
		t.Fatal(err)
	}
	seq, err := NewCompiled(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.DecideBatchInto(reqs, make([]cac.Decision, len(reqs))); err != nil {
		t.Fatal(err)
	}
	racy, err := NewCompiled(0)
	if err != nil {
		t.Fatal(err)
	}
	// Goroutine g decides n/2 requests from g·n/4 on, wrapping, in
	// batches of 64: every request is decided by two goroutines.
	const workers, batch = 4, 64
	n := len(reqs)
	got := make([][]cac.Decision, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := range workers {
		got[g] = make([]cac.Decision, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := 0; done < n/2; {
				lo := (g*n/workers + done) % n
				hi := min(lo+batch, n, lo+n/2-done)
				if err := racy.DecideBatchInto(reqs[lo:hi], got[g][lo:hi]); err != nil {
					errs[g] = err
					return
				}
				done += hi - lo
			}
		}()
	}
	wg.Wait()
	for g := range workers {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for k := range n / 2 {
			i := (g*n/workers + k) % n
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d, request %d: compiled %v, exact %v", g, i, got[g][i], want[i])
			}
		}
	}
	for k := range seq.flc1.cells {
		if s, r := seq.flc1.cells[k].Load(), racy.flc1.cells[k].Load(); s != r {
			t.Fatalf("cell %d: sequential fill %#x, racing fill %#x", k, s, r)
		}
	}
	seqSubs, racySubs := subCellWords(seq.flc1), subCellWords(racy.flc1)
	if len(seqSubs) != len(racySubs) {
		t.Fatalf("sub-cell store holds %d keys after the racing fill, %d after the sequential one", len(racySubs), len(seqSubs))
	}
	for k, w := range seqSubs {
		if racySubs[k] != w {
			t.Fatalf("sub-cell %#x: sequential fill %#x, racing fill %#x", k, w, racySubs[k])
		}
	}
	sc, ss := seq.Enclosed()
	rc, rs := racy.Enclosed()
	if sc != rc || ss != rs || ss == 0 {
		t.Fatalf("enclosed (cells, sub-cells): sequential (%d, %d), racing (%d, %d)", sc, ss, rc, rs)
	}
	t.Logf("%d cells and %d sub-cells enclosed", sc, ss)
}

// TestCompiledColdDecideZeroAllocs: deciding requests whose FLC1 cells
// no decision has enclosed yet, some of them straddling a verdict so
// that their sub-cells are enclosed too, allocates nothing. Each of
// AllocsPerRun's runs gets a batch of its own on cells no other batch
// touches, so every run is cold.
func TestCompiledColdDecideZeroAllocs(t *testing.T) {
	const runs, perBatch = 20, 4
	probe, err := NewCompiled(0)
	if err != nil {
		t.Fatal(err)
	}
	// Requests on distinct cells, split by whether deciding them on a
	// fresh controller enclosed a sub-cell.
	seen := map[int]bool{}
	var straddling, settled []cac.Request
	for _, req := range batchWorkload(t, rand.New(rand.NewSource(41)), 50000) {
		q := flc1Query{vals: [3]float64{req.Obs.SpeedKmh, req.Obs.AngleDeg, req.Obs.DistanceKm}}
		probe.flc1.locate(&q)
		if !req.Station.Fits(req.Call.BU) || seen[q.cell] {
			continue
		}
		seen[q.cell] = true
		_, subs0 := probe.Enclosed()
		if _, err := probe.Decide(req); err != nil {
			t.Fatal(err)
		}
		if _, subs1 := probe.Enclosed(); subs1 > subs0 {
			straddling = append(straddling, req)
		} else {
			settled = append(settled, req)
		}
	}
	if len(straddling) <= runs || len(settled) < (runs+1)*(perBatch-1) {
		t.Fatalf("found %d straddling and %d settled requests on distinct cells", len(straddling), len(settled))
	}
	// One straddler and perBatch-1 others per batch.
	batches := make([][]cac.Request, runs+1)
	for b := range batches {
		batches[b] = append([]cac.Request{straddling[b]}, settled[b*(perBatch-1):(b+1)*(perBatch-1)]...)
	}
	cc, err := NewCompiled(0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]cac.Decision, perBatch)
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		if err := cc.DecideBatchInto(batches[next], out); err != nil {
			t.Fatal(err)
		}
		next++
	}); n != 0 {
		t.Fatalf("DecideBatchInto on cold cells made %v allocs/op, want 0", n)
	}
	cells, subs := cc.Enclosed()
	if cells != (runs+1)*perBatch || subs < runs+1 {
		t.Fatalf("enclosed %d cells and %d sub-cells over %d cold batches, want %d cells and at least %d sub-cells",
			cells, subs, runs+1, (runs+1)*perBatch, runs+1)
	}
}

// TestPackRange: a packed range unpacks to float32 ends that hold the
// float64 range, is never the empty word, and a NaN end packs as NaN.
func TestPackRange(t *testing.T) {
	for _, r := range [][2]float64{{0, 0}, {0.25, 0.75}, {1.0 / 3, 2.0 / 3}, {-1e-40, 1e-40}, {-7.25, math.MaxFloat64}} {
		w := packRange(r[0], r[1])
		lo, hi := unpackRange(w)
		if w == 0 || lo > r[0] || hi < r[1] {
			t.Errorf("packRange(%v, %v) = %#x, unpacks to [%v, %v]", r[0], r[1], w, lo, hi)
		}
	}
	if lo, hi := unpackRange(packRange(math.NaN(), 1)); !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Errorf("a NaN range unpacks to [%v, %v]", lo, hi)
	}
}

// TestOutwardRounding: the float32 ends of a packed range never lie
// inside the float64 range they stand for.
func TestOutwardRounding(t *testing.T) {
	for _, x := range []float64{0, 0.1, -0.1, 1.0 / 3, 0.5, -7.25, 1e-40, math.MaxFloat64, math.Inf(1), math.Inf(-1)} {
		if lo := roundDown32(x); float64(lo) > x {
			t.Errorf("roundDown32(%v) = %v", x, lo)
		}
		if hi := roundUp32(x); float64(hi) < x {
			t.Errorf("roundUp32(%v) = %v", x, hi)
		}
	}
}

// BenchmarkFLC1Enclose times the enclosure of one default FLC1 grid
// cell, the work a decision does the first time it touches a cell.
func BenchmarkFLC1Enclose(b *testing.B) {
	f, err := newFLC1Cells(Must().FLC1(), DefaultSurfaceGridSize)
	if err != nil {
		b.Fatal(err)
	}
	q := flc1Query{vals: [3]float64{39.17, 31.33, 1.12}}
	f.locate(&q)
	var lo, hi [3]float64
	for i := range f.axes {
		lo[i], hi[i] = f.axes[i].nodes[q.j[i]], f.axes[i].nodes[q.j[i]+1]
	}
	for b.Loop() {
		f.enclose(&lo, &hi)
	}
}
