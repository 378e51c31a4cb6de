package cell

import (
	"errors"
	"fmt"
	"sort"

	"facs/internal/geo"
	"facs/internal/traffic"
)

// DefaultCapacityBU is the paper's base-station bandwidth: 40 BU.
const DefaultCapacityBU = 40

// Sentinel errors returned by the allocation ledger.
var (
	// ErrInsufficientBandwidth reports that a call does not fit into the
	// station's free bandwidth.
	ErrInsufficientBandwidth = errors.New("cell: insufficient bandwidth")
	// ErrUnknownCall reports a release/lookup of a call the station does
	// not carry.
	ErrUnknownCall = errors.New("cell: unknown call")
	// ErrDuplicateCall reports an admit of a call ID already carried.
	ErrDuplicateCall = errors.New("cell: duplicate call")
)

// Call is one admitted connection occupying bandwidth at a base station.
type Call struct {
	// ID is unique across the simulation.
	ID int
	// Class is the service class (text/voice/video).
	Class traffic.Class
	// BU is the occupied bandwidth.
	BU int
	// AdmittedAt is the simulation time of admission at this station.
	AdmittedAt float64
	// Handoff records whether the call arrived via handoff rather than as
	// a new call.
	Handoff bool
}

// callPool is the station's struct-of-arrays call ledger: call records
// live in a slot-indexed slice, freed slots are recycled through a
// free-list stack, and the live slots are tracked in a dense array with
// swap-removal — so admit and release are O(1) and, once the pool has
// grown to its working-set size, allocation-free. Only the small ID →
// slot index map remains (Go map buckets are retained across
// delete/insert at steady size, so it does not allocate per call
// either); the call records themselves never churn through map buckets.
type callPool struct {
	// slots holds the call records; a freed slot's record is zeroed.
	slots []Call
	// dense lists the live slots (unordered: releases swap-remove).
	dense []int32
	// pos maps slot → index in dense, -1 for free slots.
	pos []int32
	// free is the stack of recyclable slots.
	free []int32
	// index maps call ID → slot.
	index map[int]int32
}

// put inserts a call into a recycled or fresh slot. The caller has
// already checked the ID is new.
func (p *callPool) put(c Call) {
	var slot int32
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
		p.slots[slot] = c
	} else {
		slot = int32(len(p.slots))
		p.slots = append(p.slots, c)
		p.pos = append(p.pos, -1)
	}
	p.pos[slot] = int32(len(p.dense))
	p.dense = append(p.dense, slot)
	p.index[c.ID] = slot
}

// take removes and returns the call with the given ID.
func (p *callPool) take(id int) (Call, bool) {
	slot, ok := p.index[id]
	if !ok {
		return Call{}, false
	}
	delete(p.index, id)
	c := p.slots[slot]
	// Swap-remove from the dense live list.
	di := p.pos[slot]
	last := p.dense[len(p.dense)-1]
	p.dense[di] = last
	p.pos[last] = di
	p.dense = p.dense[:len(p.dense)-1]
	p.pos[slot] = -1
	p.slots[slot] = Call{}
	p.free = append(p.free, slot)
	return c, true
}

// get looks up a live call by ID.
func (p *callPool) get(id int) (Call, bool) {
	slot, ok := p.index[id]
	if !ok {
		return Call{}, false
	}
	return p.slots[slot], true
}

// reserve materializes storage for up to n concurrent calls: fresh
// slots are pushed onto the free stack (lowest first, matching the
// order lazy growth would have assigned them), every backing array gets
// capacity n, and the ID index is rebuilt with room for n entries.
// After reserve(n), put and take never allocate while the live
// population stays at or below n. Slot numbering is unobservable
// outside the pool, so reserving changes no behaviour — only when the
// memory is paid for.
func (p *callPool) reserve(n int) {
	if n <= len(p.slots) {
		return
	}
	old := len(p.slots)
	slots := make([]Call, n)
	copy(slots, p.slots)
	p.slots = slots
	pos := make([]int32, n)
	copy(pos, p.pos)
	for i := old; i < n; i++ {
		pos[i] = -1
	}
	p.pos = pos
	free := make([]int32, len(p.free), n)
	copy(free, p.free)
	p.free = free
	for slot := n - 1; slot >= old; slot-- {
		p.free = append(p.free, int32(slot))
	}
	dense := make([]int32, len(p.dense), n)
	copy(dense, p.dense)
	p.dense = dense
	index := make(map[int]int32, n)
	for id, slot := range p.index { //facs:orderless map-to-map rehash; the rebuilt index is order-free
		index[id] = slot
	}
	p.index = index
}

// BaseStation is one cell's radio resource manager. It is not safe for
// concurrent use; the simulation kernel is single-threaded by design.
type BaseStation struct {
	hex      geo.Hex
	pos      geo.Point
	capacity int
	pool     callPool
	usedRT   int
	usedNRT  int
	// classBU tracks occupied BU per service class (indexed by
	// traffic.Class), so per-class admission policies need no ledger scan.
	classBU [4]int
}

// NewBaseStation constructs a station at the given hex/position with the
// given capacity in BU.
func NewBaseStation(hex geo.Hex, pos geo.Point, capacityBU int) (*BaseStation, error) {
	if capacityBU <= 0 {
		return nil, fmt.Errorf("cell: capacity must be > 0 BU, got %d", capacityBU)
	}
	return &BaseStation{
		hex:      hex,
		pos:      pos,
		capacity: capacityBU,
		pool:     callPool{index: make(map[int]int32)},
	}, nil
}

// Hex returns the station's grid coordinate.
func (b *BaseStation) Hex() geo.Hex { return b.hex }

// Pos returns the station's plane position in metres.
func (b *BaseStation) Pos() geo.Point { return b.pos }

// Capacity returns the total bandwidth in BU.
func (b *BaseStation) Capacity() int { return b.capacity }

// Reserve presizes the station's call-pool storage for up to n
// concurrent calls, so admit/release churn below that population
// performs no allocation. Every call occupies at least 1 BU, so
// Reserve(Capacity()) is the hard bound: after it the pool never
// allocates again. Reserving is purely a memory-layout decision —
// admission behaviour and outcomes are unchanged. n values not above
// the already-materialized pool size are no-ops.
func (b *BaseStation) Reserve(n int) { b.pool.reserve(n) }

// Used returns the occupied bandwidth in BU (RTC + NRTC).
func (b *BaseStation) Used() int { return b.usedRT + b.usedNRT }

// Free returns the available bandwidth in BU.
func (b *BaseStation) Free() int { return b.capacity - b.Used() }

// RTC returns the paper's Real Time Counter: BU held by voice and video.
func (b *BaseStation) RTC() int { return b.usedRT }

// NRTC returns the paper's Non Real Time Counter: BU held by text.
func (b *BaseStation) NRTC() int { return b.usedNRT }

// ClassBU returns the BU currently held by calls of the given class.
// Unknown classes hold nothing.
func (b *BaseStation) ClassBU(class traffic.Class) int {
	if !class.Valid() {
		return 0
	}
	return b.classBU[class]
}

// Occupancy returns Used/Capacity in [0, 1].
func (b *BaseStation) Occupancy() float64 {
	return float64(b.Used()) / float64(b.capacity)
}

// NumCalls returns the number of carried calls.
func (b *BaseStation) NumCalls() int { return len(b.pool.dense) }

// Fits reports whether a call of the given size would be admissible
// right now. It agrees with Admit on degenerate sizes: a call must
// occupy strictly positive bandwidth, so Fits(0) is false exactly as
// Admit rejects BU <= 0.
func (b *BaseStation) Fits(bu int) bool { return bu > 0 && bu <= b.Free() }

// Admit adds a call to the ledger, debiting the class counter. The call
// must fit and its ID must be new, otherwise the ledger is unchanged and
// an error wrapping ErrInsufficientBandwidth / ErrDuplicateCall is
// returned.
//
//facs:hotpath
func (b *BaseStation) Admit(c Call) error {
	if c.BU <= 0 {
		return fmt.Errorf("cell: call %d has non-positive bandwidth %d", c.ID, c.BU) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	if !c.Class.Valid() {
		return fmt.Errorf("cell: call %d has invalid class %v", c.ID, c.Class) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	if _, dup := b.pool.index[c.ID]; dup {
		return fmt.Errorf("cell: admitting call %d at %v: %w", c.ID, b.hex, ErrDuplicateCall) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	if c.BU > b.Free() {
		return fmt.Errorf("cell: admitting call %d (%d BU) at %v with %d BU free: %w", //facs:alloc reject/error path; formats nothing on the steady-state wave
			c.ID, c.BU, b.hex, b.Free(), ErrInsufficientBandwidth)
	}
	b.pool.put(c)
	if c.Class.RealTime() {
		b.usedRT += c.BU
	} else {
		b.usedNRT += c.BU
	}
	b.classBU[c.Class] += c.BU
	return nil
}

// Release removes a call from the ledger, crediting its bandwidth back.
//
//facs:hotpath
func (b *BaseStation) Release(id int) (Call, error) {
	c, ok := b.pool.take(id)
	if !ok {
		return Call{}, fmt.Errorf("cell: releasing call %d at %v: %w", id, b.hex, ErrUnknownCall) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	if c.Class.RealTime() {
		b.usedRT -= c.BU
	} else {
		b.usedNRT -= c.BU
	}
	b.classBU[c.Class] -= c.BU
	return c, nil
}

// DetachCalls removes every carried call from the ledger in ascending
// call-ID order, appending the records to dst and returning it. After
// DetachCalls the station carries nothing: counters are zero and the
// pool slots are free. Together with AttachCalls it is the
// cell-migration seam of the sharded engine: the old owner shard
// detaches the station's slots, the new owner re-attaches them, making
// the ownership handover an explicit pair of writes that conservation
// checks (and the race detector) can observe. The pair is
// behaviour-preserving: records are moved verbatim, and every
// externally observable order (Calls) is ID-sorted anyway.
func (b *BaseStation) DetachCalls(dst []Call) []Call {
	start := len(dst)
	for _, slot := range b.pool.dense {
		dst = append(dst, b.pool.slots[slot])
	}
	moved := dst[start:]
	sort.Slice(moved, func(i, j int) bool { return moved[i].ID < moved[j].ID })
	for _, c := range moved {
		b.pool.take(c.ID)
	}
	b.usedRT, b.usedNRT = 0, 0
	b.classBU = [4]int{}
	return dst
}

// AttachCalls re-admits previously detached call records verbatim,
// preserving AdmittedAt and Handoff. It fails (leaving any calls
// admitted so far in place) if a record does not fit or duplicates a
// carried ID — impossible when the input is a DetachCalls result from
// the same station with no interleaved traffic, which is the migration
// protocol's contract.
func (b *BaseStation) AttachCalls(calls []Call) error {
	for _, c := range calls {
		if err := b.Admit(c); err != nil {
			return fmt.Errorf("cell: attaching migrated call %d at %v: %w", c.ID, b.hex, err)
		}
	}
	return nil
}

// Call looks up a carried call by ID.
func (b *BaseStation) Call(id int) (Call, bool) {
	return b.pool.get(id)
}

// Calls returns the carried calls sorted by ID (a defensive copy). The
// pool's dense order is history-dependent, so the sort keeps every
// observer deterministic.
func (b *BaseStation) Calls() []Call {
	out := make([]Call, 0, len(b.pool.dense))
	for _, slot := range b.pool.dense {
		out = append(out, b.pool.slots[slot])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// String implements fmt.Stringer.
func (b *BaseStation) String() string {
	return fmt.Sprintf("BS%v used=%d/%d (RTC=%d NRTC=%d)", b.hex, b.Used(), b.capacity, b.usedRT, b.usedNRT)
}
