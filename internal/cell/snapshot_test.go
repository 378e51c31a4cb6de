package cell

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"facs/internal/geo"
	"facs/internal/snap"
	"facs/internal/traffic"
)

// sealStationPayload wraps payload in a correctly sealed base-station
// envelope for bs: the right kind, the station's config hash and a
// valid checksum, so the bytes reach the payload decoder.
func sealStationPayload(bs *BaseStation, payload []byte) []byte {
	var buf bytes.Buffer
	e := snap.NewEncoder(&buf, "base-station", bs.snapshotHash())
	for _, b := range payload {
		e.U8(b)
	}
	if err := e.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// overflowPayload declares two voice calls of 2^62 BU each, laid out
// as SnapshotTo writes them: their sum wraps a 64-bit int negative.
func overflowPayload() []byte {
	p := binary.LittleEndian.AppendUint32(nil, 2)
	for id := uint64(1); id <= 2; id++ {
		p = binary.LittleEndian.AppendUint64(p, id)
		p = binary.LittleEndian.AppendUint64(p, uint64(traffic.Voice))
		p = binary.LittleEndian.AppendUint64(p, 1<<62) // BU
		p = binary.LittleEndian.AppendUint64(p, 0)     // AdmittedAt
		p = append(p, 0)                               // Handoff
	}
	return p
}

func TestStationRestoreRejectsOverflowingBandwidth(t *testing.T) {
	bs := newBS(t, 40)
	if err := bs.Admit(Call{ID: 7, Class: traffic.Voice, BU: 5, AdmittedAt: 1}); err != nil {
		t.Fatal(err)
	}
	before := bs.Calls()
	err := bs.RestoreFrom(bytes.NewReader(sealStationPayload(bs, overflowPayload())))
	if !errors.Is(err, snap.ErrSnapshotCorrupt) {
		t.Fatalf("RestoreFrom = %v, want ErrSnapshotCorrupt", err)
	}
	if got := bs.Calls(); !reflect.DeepEqual(got, before) {
		t.Fatalf("Calls after a rejected restore = %v, want %v", got, before)
	}
}

// FuzzStationRestore feeds arbitrary payloads, sealed in a valid
// base-station envelope, to RestoreFrom. It must never panic; every
// error must wrap ErrSnapshotCorrupt or ErrSnapshotStale and leave the
// station's calls unchanged; every success must leave Used() within
// Capacity().
func FuzzStationRestore(f *testing.F) {
	newStation := func() *BaseStation {
		bs, err := NewBaseStation(geo.Hex{Q: 1, R: -1}, geo.Point{}, 40)
		if err != nil {
			panic(err)
		}
		if err := bs.Admit(Call{ID: 7, Class: traffic.Voice, BU: 5, AdmittedAt: 1}); err != nil {
			panic(err)
		}
		return bs
	}
	src := newStation()
	for _, c := range []Call{
		{ID: 9, Class: traffic.Video, BU: 10, AdmittedAt: 2.5, Handoff: true},
		{ID: 12, Class: traffic.Text, BU: 1, AdmittedAt: 3},
	} {
		if err := src.Admit(c); err != nil {
			f.Fatal(err)
		}
	}
	var real bytes.Buffer
	if err := src.SnapshotTo(&real); err != nil {
		f.Fatal(err)
	}
	// The payload sits between the envelope header and the checksum.
	header := len(sealStationPayload(src, nil)) - 8
	f.Add(real.Bytes()[header : real.Len()-8])
	f.Add(overflowPayload())
	f.Fuzz(func(t *testing.T, payload []byte) {
		bs := newStation()
		before := bs.Calls()
		err := bs.RestoreFrom(bytes.NewReader(sealStationPayload(bs, payload)))
		if err != nil {
			if !errors.Is(err, snap.ErrSnapshotCorrupt) && !errors.Is(err, snap.ErrSnapshotStale) {
				t.Fatalf("unclassified restore error %v", err)
			}
			if got := bs.Calls(); !reflect.DeepEqual(got, before) {
				t.Fatalf("Calls after a failed restore = %v, want %v", got, before)
			}
			return
		}
		if bs.Used() > bs.Capacity() {
			t.Fatalf("Used() = %d after restore, capacity %d", bs.Used(), bs.Capacity())
		}
	})
}
