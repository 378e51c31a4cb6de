package scc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/snap"
)

// fuzzSnapshotNet builds the small fixed network every fuzz iteration
// restores into: one ring, default capacity.
func fuzzSnapshotNet() *cell.Network {
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 1})
	if err != nil {
		panic(err)
	}
	return net
}

func fuzzSnapshotLedger() *Ledger {
	l, err := NewLedger(Config{Network: fuzzSnapshotNet()})
	if err != nil {
		panic(err)
	}
	return l
}

// fuzzSnapshotSource builds the non-trivial ledger the seeds encode. It
// must be fully deterministic so the checked-in corpus stays
// replayable.
func fuzzSnapshotSource() *Ledger {
	l := fuzzSnapshotLedger()
	stations := fuzzSnapshotNet().Stations()
	rng := rand.New(rand.NewSource(42))
	for id := 0; id < 12; id++ {
		bs := stations[rng.Intn(len(stations))]
		l.OnAdmit(cac.Request{
			Call:    cell.Call{ID: id, Class: 2, BU: 5},
			Station: bs,
			Est:     gpsEstimate(bs.Pos(), rng.Float64()*360-180, rng.Float64()*100),
		})
	}
	l.OnRelease(3, nil, 0)
	l.ExportDemand()
	l.ApplyGhost(1, cac.DemandDelta{Gen: 1, Rows: []cac.DemandRow{
		{Cell: geo.Hex{Q: 0, R: 0}, K: 0, Amount: 3},
	}})
	return l
}

// fuzzSnapshotPayload encodes the source ledger with its matrices as
// given, after mutate has changed them.
func fuzzSnapshotPayload(mutate func(demand, ghost, exported []float64)) []byte {
	l := fuzzSnapshotSource()
	demand, ghost, exported := wholeBU(l.demand), wholeBU(l.ghost), wholeBU(l.exported)
	mutate(demand, ghost, exported)
	var buf bytes.Buffer
	if err := l.writeSnapshot(&buf, demand, ghost, exported); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fuzzSnapshotSeeds enumerates the seed corpus: the valid blob plus
// the interesting manual corruptions (empty, magic-only, truncations
// at section boundaries, bit flips across header/payload/checksum,
// trailing garbage) and two well-formed blobs whose matrices are not
// whole BU (a ghost entry of 0.5, a demand entry of 2^63).
func fuzzSnapshotSeeds() [][]byte {
	valid := fuzzSnapshotPayload(func(_, _, _ []float64) {})
	seeds := [][]byte{valid, {}, []byte("FSNP")}
	for _, n := range []int{1, 4, 8, 16, len(valid) / 2, len(valid) - 9, len(valid) - 1} {
		if n > 0 && n < len(valid) {
			seeds = append(seeds, valid[:n])
		}
	}
	for _, i := range []int{0, 5, 13, 20, len(valid) / 2, len(valid) - 3} {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x40
		seeds = append(seeds, mut)
	}
	seeds = append(seeds, append(append([]byte(nil), valid...), 0xff))
	seeds = append(seeds,
		fuzzSnapshotPayload(func(_, ghost, _ []float64) { ghost[0] = 0.5 }),
		fuzzSnapshotPayload(func(demand, _, _ []float64) { demand[0] = 1 << 63 }))
	return seeds
}

// FuzzDecodeSnapshot pins the ledger restore path's total robustness
// contract, mirroring fuzzy's FuzzDecodeSurface: whatever bytes arrive
// — truncated, bit-flipped, adversarially structured — RestoreFrom
// either succeeds or returns one of the two snapshot sentinels
// (snap.ErrSnapshotStale, snap.ErrSnapshotCorrupt). It must never
// panic, never return an unclassified error, and a successful restore
// must leave the ledger usable (it re-snapshots cleanly). CI runs a
// bounded smoke (-fuzz=FuzzDecodeSnapshot -fuzztime=10s); the
// checked-in corpus under testdata/fuzz replays as part of the normal
// test suite.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, seed := range fuzzSnapshotSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		l := fuzzSnapshotLedger()
		err := l.RestoreFrom(bytes.NewReader(blob))
		if err != nil {
			if !errors.Is(err, snap.ErrSnapshotStale) && !errors.Is(err, snap.ErrSnapshotCorrupt) {
				t.Fatalf("unclassified restore error %v (want ErrSnapshotStale or ErrSnapshotCorrupt)", err)
			}
			return
		}
		// A successful restore must leave a coherent ledger: it can
		// re-snapshot, and the re-snapshot restores.
		var buf bytes.Buffer
		if err := l.SnapshotTo(&buf); err != nil {
			t.Fatalf("re-snapshot after successful restore: %v", err)
		}
		if err := fuzzSnapshotLedger().RestoreFrom(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("restore of re-snapshot: %v", err)
		}
	})
}

// TestWriteSnapshotFuzzCorpus regenerates the checked-in seed corpus
// under testdata/fuzz/FuzzDecodeSnapshot when FACS_WRITE_FUZZ_CORPUS=1
// is set; it is a no-op otherwise. The corpus replays in normal test
// runs, so decoder regressions caught by fuzzing stay caught.
func TestWriteSnapshotFuzzCorpus(t *testing.T) {
	if os.Getenv("FACS_WRITE_FUZZ_CORPUS") != "1" {
		t.Skip("set FACS_WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSnapshotSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed_%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
