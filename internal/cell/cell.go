package cell

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

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

// callPool is the station's call ledger: one power-of-two table
// open-addressed by call ID (Fibonacci hash, linear probing,
// backward-shift deletion, no tombstones) and a live count. A slot is
// live when its BU is positive, which Admit requires, and an empty slot
// is the zero Call. The table grows past 3/4 load and never shrinks.
type callPool struct {
	table []Call
	// n is the number of live calls.
	n int
	// shift maps the 64-bit hash to a table index: 64 - log2(len(table)).
	shift uint
}

const (
	// minPoolSlots is the table size the first admission allocates.
	minPoolSlots = 8
	// fibMul is 2^64 divided by the golden ratio, rounded to odd: the
	// Fibonacci-hashing multiplier.
	fibMul = 0x9e3779b97f4a7c15
)

// poolSlots returns the smallest table size holding n live calls at no
// more than 3/4 load.
func poolSlots(n int) int {
	size := minPoolSlots
	for size*3 < n*4 {
		size *= 2
	}
	return size
}

// home returns the slot a call ID hashes to.
func (p *callPool) home(id int) int {
	return int(uint64(id) * fibMul >> p.shift)
}

// find probes for id. It returns the slot holding it, or the empty slot
// that ends its probe run and false. An unallocated table reports -1.
func (p *callPool) find(id int) (int, bool) {
	if len(p.table) == 0 {
		return -1, false
	}
	mask := len(p.table) - 1
	for i := p.home(id); ; i = (i + 1) & mask {
		switch s := &p.table[i]; {
		case s.BU == 0:
			return i, false
		case s.ID == id:
			return i, true
		}
	}
}

// insert stores c in the empty slot find returned for c.ID, growing the
// table first when one more call would pass 3/4 load.
func (p *callPool) insert(slot int, c Call) {
	if (p.n+1)*4 > len(p.table)*3 {
		p.resize(poolSlots(p.n + 1))
		slot, _ = p.find(c.ID)
	}
	p.table[slot] = c
	p.n++
}

// remove empties slot i, shifting later members of its probe run back so
// that every live call stays reachable from its home slot.
func (p *callPool) remove(i int) {
	mask := len(p.table) - 1
	for j := (i + 1) & mask; p.table[j].BU > 0; j = (j + 1) & mask {
		// The record at j may fill the hole at i when i lies on its probe
		// path, i.e. its home is at least as far behind j as i is.
		if (j-p.home(p.table[j].ID))&mask >= (j-i)&mask {
			p.table[i] = p.table[j]
			i = j
		}
	}
	p.table[i] = Call{}
	p.n--
}

// resize rehashes the live calls into a table of size slots (a power of
// two above the live count).
func (p *callPool) resize(size int) {
	old := p.table
	p.table = make([]Call, size) //facs:alloc amortized growth; a steady population never resizes
	p.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, c := range old {
		if c.BU > 0 {
			slot, _ := p.find(c.ID)
			p.table[slot] = c
		}
	}
}

// appendLive appends the live calls to dst in ascending ID order.
func (p *callPool) appendLive(dst []Call) []Call {
	start := len(dst)
	for _, c := range p.table {
		if c.BU > 0 {
			dst = append(dst, c)
		}
	}
	slices.SortFunc(dst[start:], func(a, b Call) int { return cmp.Compare(a.ID, b.ID) })
	return dst
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
	}, nil
}

// Hex returns the station's grid coordinate.
func (b *BaseStation) Hex() geo.Hex { return b.hex }

// Pos returns the station's plane position in metres.
func (b *BaseStation) Pos() geo.Point { return b.pos }

// Capacity returns the total bandwidth in BU.
func (b *BaseStation) Capacity() int { return b.capacity }

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
func (b *BaseStation) NumCalls() int { return b.pool.n }

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
	slot, dup := b.pool.find(c.ID)
	if dup {
		return fmt.Errorf("cell: admitting call %d at %v: %w", c.ID, b.hex, ErrDuplicateCall) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	if c.BU > b.Free() {
		return fmt.Errorf("cell: admitting call %d (%d BU) at %v with %d BU free: %w", //facs:alloc reject/error path; formats nothing on the steady-state wave
			c.ID, c.BU, b.hex, b.Free(), ErrInsufficientBandwidth)
	}
	b.pool.insert(slot, c)
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
	slot, ok := b.pool.find(id)
	if !ok {
		return Call{}, fmt.Errorf("cell: releasing call %d at %v: %w", id, b.hex, ErrUnknownCall) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	c := b.pool.table[slot]
	b.pool.remove(slot)
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
// call table is empty (its storage is kept). Together with AttachCalls
// it is the cell-migration seam of the sharded engine: the old owner
// shard detaches the station's calls, the new owner re-attaches them,
// making the ownership handover an explicit pair of writes that
// conservation checks (and the race detector) can observe. The pair is
// behaviour-preserving: records are moved verbatim, and every
// externally observable order (Calls) is ID-sorted anyway.
func (b *BaseStation) DetachCalls(dst []Call) []Call {
	dst = b.pool.appendLive(dst)
	clear(b.pool.table)
	b.pool.n = 0
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
	if slot, ok := b.pool.find(id); ok {
		return b.pool.table[slot], true
	}
	return Call{}, false
}

// Calls returns the carried calls sorted by ID (a defensive copy). The
// table's slot order is history-dependent, so the sort keeps every
// observer deterministic.
func (b *BaseStation) Calls() []Call {
	return b.pool.appendLive(make([]Call, 0, b.pool.n))
}

// String implements fmt.Stringer.
func (b *BaseStation) String() string {
	return fmt.Sprintf("BS%v used=%d/%d (RTC=%d NRTC=%d)", b.hex, b.Used(), b.capacity, b.usedRT, b.usedNRT)
}
