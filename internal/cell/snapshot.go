package cell

import (
	"io"

	"facs/internal/snap"
	"facs/internal/traffic"
)

// snapshotHash fingerprints the station's identity: its hex address
// and capacity. A snapshot restores only onto the same cell of an
// identically-provisioned network.
func (b *BaseStation) snapshotHash() uint64 {
	return snap.NewHasher().
		Str("base-station").
		Int(b.hex.Q).
		Int(b.hex.R).
		Int(b.capacity).
		Sum()
}

// SnapshotTo implements cac.Snapshotter: it writes the station's
// admitted calls (ID-sorted, with their exact admission timestamps and
// handoff flags) as one snapshot blob. Occupancy counters are not
// stored — RestoreFrom re-derives them by re-admitting every call, so
// they can never disagree with the call set.
func (b *BaseStation) SnapshotTo(w io.Writer) error {
	e := snap.NewEncoder(w, "base-station", b.snapshotHash())
	calls := b.Calls()
	e.U32(uint32(len(calls)))
	for _, c := range calls {
		e.Int(c.ID)
		e.Int(int(c.Class))
		e.Int(c.BU)
		e.F64(c.AdmittedAt)
		e.Bool(c.Handoff)
	}
	return e.Close()
}

// RestoreFrom implements cac.Snapshotter: it replaces the station's
// call set with the snapshot's. The blob is fully decoded and
// validated (ascending IDs, valid classes, total bandwidth within
// capacity) before any state changes, so a corrupt snapshot leaves the
// station untouched.
func (b *BaseStation) RestoreFrom(r io.Reader) error {
	d, err := snap.NewDecoder(r, "base-station", b.snapshotHash())
	if err != nil {
		return err
	}
	n := int(d.U32())
	// Each call costs at least 8+8+8+8+1 payload bytes; bounding the
	// count by the remaining bytes keeps a corrupt length from driving
	// the allocation.
	if d.Err() == nil && n*33 > d.Len() {
		d.Fail("%d calls declared, %d payload bytes left", n, d.Len())
	}
	if err := d.Err(); err != nil {
		return err
	}
	calls := make([]Call, n)
	total := 0
	for i := range calls {
		calls[i] = Call{
			ID:         d.Int(),
			Class:      traffic.Class(d.Int()),
			BU:         d.Int(),
			AdmittedAt: d.F64(),
			Handoff:    d.Bool(),
		}
		c := &calls[i]
		if d.Err() != nil {
			break
		}
		if !c.Class.Valid() {
			d.Fail("call %d has invalid class %d", c.ID, int(c.Class))
		}
		if c.BU <= 0 {
			d.Fail("call %d has non-positive bandwidth %d", c.ID, c.BU)
		}
		if i > 0 && c.ID <= calls[i-1].ID {
			d.Fail("call IDs not strictly ascending at %d", c.ID)
		}
		// Compared against the room left, not summed first: a sum of
		// huge bandwidths could overflow past the capacity check.
		if c.BU > b.capacity-total {
			d.Fail("call %d needs %d BU, %d of capacity %d left", c.ID, c.BU, b.capacity-total, b.capacity)
			break
		}
		total += c.BU
	}
	if err := d.Close(); err != nil {
		return err
	}
	b.DetachCalls(nil)
	// Validation above guarantees every Admit succeeds: IDs are unique,
	// classes valid, and the total fits.
	for i := range calls {
		if err := b.Admit(calls[i]); err != nil {
			return err
		}
	}
	return nil
}
