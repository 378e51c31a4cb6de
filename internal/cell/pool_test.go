package cell

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"facs/internal/geo"
	"facs/internal/traffic"
)

// refLedger is the original map-based BaseStation ledger, kept here as
// the behavioural oracle for the open-addressed call table.
type refLedger struct {
	capacity int
	calls    map[int]Call
	usedRT   int
	usedNRT  int
}

func newRefLedger(capacity int) *refLedger {
	return &refLedger{capacity: capacity, calls: make(map[int]Call)}
}

func (r *refLedger) free() int { return r.capacity - r.usedRT - r.usedNRT }

func (r *refLedger) admit(c Call) error {
	if c.BU <= 0 || !c.Class.Valid() {
		return errors.New("invalid")
	}
	if _, dup := r.calls[c.ID]; dup {
		return ErrDuplicateCall
	}
	if c.BU > r.free() {
		return ErrInsufficientBandwidth
	}
	r.calls[c.ID] = c
	if c.Class.RealTime() {
		r.usedRT += c.BU
	} else {
		r.usedNRT += c.BU
	}
	return nil
}

func (r *refLedger) release(id int) (Call, error) {
	c, ok := r.calls[id]
	if !ok {
		return Call{}, ErrUnknownCall
	}
	delete(r.calls, id)
	if c.Class.RealTime() {
		r.usedRT -= c.BU
	} else {
		r.usedNRT -= c.BU
	}
	return c, nil
}

func (r *refLedger) sorted() []Call {
	out := make([]Call, 0, len(r.calls))
	for _, c := range r.calls {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *refLedger) classBU(class traffic.Class) int {
	var sum int
	for _, c := range r.calls {
		if c.Class == class {
			sum += c.BU
		}
	}
	return sum
}

// sameOutcome reports whether two ledger errors agree: both nil, or both
// classifiable as the same sentinel / both "invalid argument".
func sameOutcome(poolErr, refErr error) bool {
	if (poolErr == nil) != (refErr == nil) {
		return false
	}
	if poolErr == nil {
		return true
	}
	for _, sentinel := range []error{ErrDuplicateCall, ErrInsufficientBandwidth, ErrUnknownCall} {
		if errors.Is(refErr, sentinel) {
			return errors.Is(poolErr, sentinel)
		}
	}
	// Reference rejected the arguments outright; the pool must too, with
	// a non-sentinel validation error.
	return !errors.Is(poolErr, ErrDuplicateCall) &&
		!errors.Is(poolErr, ErrInsufficientBandwidth) &&
		!errors.Is(poolErr, ErrUnknownCall)
}

// ledgerPair drives a BaseStation and the map oracle in lockstep: every
// operation must produce the same outcome on both, and after it the
// station's counters, call set and table invariants must agree with the
// oracle.
type ledgerPair struct {
	bs  *BaseStation
	ref *refLedger
}

func newLedgerPair(tb testing.TB, capacity int) ledgerPair {
	tb.Helper()
	bs, err := NewBaseStation(geo.Hex{}, geo.Point{}, capacity)
	if err != nil {
		tb.Fatal(err)
	}
	return ledgerPair{bs: bs, ref: newRefLedger(capacity)}
}

func (p ledgerPair) admit(tb testing.TB, c Call) error {
	tb.Helper()
	errPool, errRef := p.bs.Admit(c), p.ref.admit(c)
	if !sameOutcome(errPool, errRef) {
		tb.Fatalf("Admit(%+v) pool=%v ref=%v", c, errPool, errRef)
	}
	return errPool
}

func (p ledgerPair) release(tb testing.TB, id int) {
	tb.Helper()
	cPool, errPool := p.bs.Release(id)
	cRef, errRef := p.ref.release(id)
	if !sameOutcome(errPool, errRef) {
		tb.Fatalf("Release(%d) pool=%v ref=%v", id, errPool, errRef)
	}
	if cPool != cRef {
		tb.Fatalf("Release(%d) returned %+v, ref %+v", id, cPool, cRef)
	}
}

func (p ledgerPair) lookup(tb testing.TB, id int) {
	tb.Helper()
	c, ok := p.bs.Call(id)
	want, wantOK := p.ref.calls[id]
	if ok != wantOK || c != want {
		tb.Fatalf("Call(%d) = %+v,%v, ref %+v,%v", id, c, ok, want, wantOK)
	}
}

// checkCounters compares the O(1) observables after every operation.
func (p ledgerPair) checkCounters(tb testing.TB) {
	tb.Helper()
	bs, ref := p.bs, p.ref
	if bs.Used() != ref.usedRT+ref.usedNRT || bs.RTC() != ref.usedRT || bs.NRTC() != ref.usedNRT {
		tb.Fatalf("counters diverged: pool used/RTC/NRTC=%d/%d/%d ref=%d/%d/%d",
			bs.Used(), bs.RTC(), bs.NRTC(), ref.usedRT+ref.usedNRT, ref.usedRT, ref.usedNRT)
	}
	if bs.NumCalls() != len(ref.calls) {
		tb.Fatalf("NumCalls=%d ref=%d", bs.NumCalls(), len(ref.calls))
	}
}

// checkAll deep-compares the call set, every lookup and the per-class
// counters, and checks the table invariants.
func (p ledgerPair) checkAll(tb testing.TB) {
	tb.Helper()
	p.checkCounters(tb)
	got, want := p.bs.Calls(), p.ref.sorted()
	if len(got) != len(want) {
		tb.Fatalf("Calls(): %d calls, ref %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			tb.Fatalf("Calls()[%d] = %+v, ref %+v", i, got[i], want[i])
		}
		p.lookup(tb, got[i].ID)
	}
	for _, class := range traffic.Classes() {
		if p.bs.ClassBU(class) != p.ref.classBU(class) {
			tb.Fatalf("ClassBU(%v) = %d, ref %d", class, p.bs.ClassBU(class), p.ref.classBU(class))
		}
	}
	checkTable(tb, &p.bs.pool)
}

// checkTable verifies the open-addressing invariants: the table is a
// power of two at most 3/4 full, every live record is reachable from
// its home slot without crossing an empty slot, the live count equals
// the number of occupied slots, and every empty slot is the zero Call.
func checkTable(tb testing.TB, p *callPool) {
	tb.Helper()
	size := len(p.table)
	if size == 0 {
		if p.n != 0 {
			tb.Fatalf("unallocated table reports %d live calls", p.n)
		}
		return
	}
	if size&(size-1) != 0 || size < minPoolSlots {
		tb.Fatalf("table size %d is not a power of two >= %d", size, minPoolSlots)
	}
	if p.n*4 > size*3 {
		tb.Fatalf("%d live calls in %d slots exceeds 3/4 load", p.n, size)
	}
	occupied := 0
	for i, c := range p.table {
		if c.BU == 0 {
			if c != (Call{}) {
				tb.Fatalf("empty slot %d holds %+v", i, c)
			}
			continue
		}
		occupied++
		for j := p.home(c.ID); j != i; j = (j + 1) & (size - 1) {
			if p.table[j].BU == 0 {
				tb.Fatalf("call %d at slot %d unreachable: empty slot %d on its probe path from %d",
					c.ID, i, j, p.home(c.ID))
			}
		}
	}
	if occupied != p.n {
		tb.Fatalf("live count %d, occupied slots %d", p.n, occupied)
	}
}

// fibInverse is the multiplicative inverse of fibMul modulo 2^64
// (Newton's iteration; each step doubles the correct low bits).
var fibInverse = func() uint64 {
	inv := uint64(fibMul)
	for i := 0; i < 6; i++ {
		inv *= 2 - fibMul*inv
	}
	return inv
}()

// idWithHash returns the call ID whose 64-bit Fibonacci hash is h. The
// table indexes by the top bits of the hash, so IDs sharing h's top
// bits share a home slot at every table size up to 2^(those bits).
func idWithHash(h uint64) int { return int(h * fibInverse) }

// collidingIDs returns n distinct IDs whose home is slot top>>54 of a
// 1024-slot table, hence the same home at every smaller size too.
func collidingIDs(top uint64, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = idWithHash(top<<54 | uint64(i))
	}
	return ids
}

// TestPoolMatchesMapLedger drives the call table and the old map-based
// ledger through the same randomized admit/release stream (including
// duplicate IDs, unknown releases, overcommit attempts and degenerate
// BU) and checks they agree on every outcome and on all observable
// state after every operation.
func TestPoolMatchesMapLedger(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := newLedgerPair(t, 60)
	classes := []traffic.Class{traffic.Text, traffic.Voice, traffic.Video, traffic.Class(9)}

	live := make([]int, 0, 64)
	nextID := 0
	for op := 0; op < 20000; op++ {
		switch {
		case rng.Intn(100) < 55: // admit
			var c Call
			switch r := rng.Intn(100); {
			case r < 5 && len(live) > 0: // duplicate ID
				id := live[rng.Intn(len(live))]
				c = Call{ID: id, Class: traffic.Voice, BU: 5}
			case r < 10: // degenerate BU
				c = Call{ID: nextID, Class: traffic.Text, BU: rng.Intn(3) - 2}
				nextID++
			case r < 13: // invalid class
				c = Call{ID: nextID, Class: classes[3], BU: 1}
				nextID++
			default:
				class := classes[rng.Intn(3)]
				c = Call{ID: nextID, Class: class, BU: class.BandwidthUnits(),
					AdmittedAt: float64(op), Handoff: rng.Intn(2) == 0}
				nextID++
			}
			if p.admit(t, c) == nil {
				live = append(live, c.ID)
			}
		default: // release (sometimes unknown)
			var id int
			if len(live) == 0 || rng.Intn(100) < 10 {
				id = 1_000_000 + rng.Intn(100)
			} else {
				i := rng.Intn(len(live))
				id = live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			p.release(t, id)
		}
		p.checkCounters(t)
		if op%97 == 0 {
			p.checkAll(t)
		}
	}
	p.checkAll(t)

	// Adversarial keys: the same lockstep comparison over IDs built to
	// defeat the hash. Every subtest starts from an unallocated table so
	// the clusters also straddle every growth step.
	text := func(id int) Call { return Call{ID: id, Class: traffic.Text, BU: 1, AdmittedAt: float64(id % 1000)} }
	churn := func(t *testing.T, p ledgerPair, ids []int) {
		t.Helper()
		before := p.bs.NumCalls()
		for _, id := range ids {
			if err := p.admit(t, text(id)); err != nil {
				t.Fatalf("admit %d: %v", id, err)
			}
			p.checkAll(t)
		}
		// Deletes inside the run: every other member, then lookups of
		// all members, then re-admission of the released IDs.
		for i := 0; i < len(ids); i += 2 {
			p.release(t, ids[i])
			p.checkAll(t)
		}
		for _, id := range ids {
			p.lookup(t, id)
		}
		for i := 0; i < len(ids); i += 2 {
			p.admit(t, Call{ID: ids[i], Class: traffic.Voice, BU: 5, Handoff: true})
			p.checkAll(t)
		}
		p.admit(t, text(ids[len(ids)/2])) // duplicate inside the run
		for i := len(ids) - 1; i >= 0; i-- {
			p.release(t, ids[i])
			p.checkAll(t)
		}
		if p.bs.NumCalls() != before {
			t.Fatalf("%d calls left after releasing every ID, want %d", p.bs.NumCalls(), before)
		}
	}
	extremes := []int{math.MinInt, math.MinInt + 1, -1, 0, 1, math.MaxInt - 1, math.MaxInt}
	t.Run("shared-home", func(t *testing.T) {
		// 40 IDs on one home slot: growth from 8 to 64 slots happens with
		// the whole cluster in place.
		ids := collidingIDs(3, 40)
		for size := minPoolSlots; size <= 1024; size *= 2 {
			pool := callPool{shift: uint(64 - bits.TrailingZeros(uint(size)))}
			for _, id := range ids {
				if pool.home(id) != pool.home(ids[0]) {
					t.Fatalf("%d slots: IDs %d and %d have different homes", size, ids[0], id)
				}
			}
		}
		churn(t, newLedgerPair(t, 1000), ids)
	})
	t.Run("wrap-past-end", func(t *testing.T) {
		// Home is the last slot at every size, so the run wraps to slot 0.
		churn(t, newLedgerPair(t, 1000), collidingIDs(1023, 30))
	})
	t.Run("merged-clusters", func(t *testing.T) {
		// Two clusters, homed at the last and the first slot, interleaved
		// so the wrapped run and the slot-0 run merge; backward shifts
		// must not pull a slot-0-homed record behind its home.
		a, b := collidingIDs(1023, 20), collidingIDs(0, 20)
		ids := make([]int, 0, 40)
		for i := range a {
			ids = append(ids, a[i], b[i])
		}
		churn(t, newLedgerPair(t, 1000), ids)
	})
	t.Run("extreme-ids", func(t *testing.T) {
		// Plus the IDs hashing to the extreme slots of every table size.
		ids := append(append([]int(nil), extremes...), collidingIDs(512, 10)[1:]...) // [0] is math.MinInt
		ids = append(ids, idWithHash(math.MaxUint64), idWithHash(math.MaxUint64>>1), idWithHash(1))
		churn(t, newLedgerPair(t, 1000), ids)
		p := newLedgerPair(t, 1000)
		for _, id := range extremes {
			p.release(t, id) // unknown on an unallocated table
			p.lookup(t, id)
		}
	})
	t.Run("growth-mid-cluster", func(t *testing.T) {
		// Six live calls fill an 8-slot table; the seventh, homed inside
		// the existing cluster, triggers the rehash.
		p := newLedgerPair(t, 1000)
		for _, id := range collidingIDs(900, 6) {
			p.admit(t, text(id))
		}
		if got := len(p.bs.pool.table); got != minPoolSlots {
			t.Fatalf("table has %d slots before growth, want %d", got, minPoolSlots)
		}
		p.admit(t, text(collidingIDs(900, 7)[6]))
		if got := len(p.bs.pool.table); got != 2*minPoolSlots {
			t.Fatalf("table has %d slots after growth, want %d", got, 2*minPoolSlots)
		}
		p.checkAll(t)
		churn(t, p, collidingIDs(901, 20))
	})
}

// TestPoolHandoffEquivalence checks Network.Handoff keeps the pool-based
// ledgers consistent under randomized moves, including drops.
func TestPoolHandoffEquivalence(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Rings: 2, CapacityBU: 30})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	stations := net.Stations()
	type loc struct {
		hex geo.Hex
		bu  int
	}
	where := make(map[int]loc)
	nextID := 0
	for op := 0; op < 5000; op++ {
		switch {
		case rng.Intn(100) < 40 || len(where) == 0: // admit somewhere
			bs := stations[rng.Intn(len(stations))]
			class := traffic.Classes()[rng.Intn(3)]
			c := Call{ID: nextID, Class: class, BU: class.BandwidthUnits()}
			nextID++
			if err := bs.Admit(c); err == nil {
				where[c.ID] = loc{hex: bs.Hex(), bu: c.BU}
			}
		default: // hand off a random live call to a random neighbour
			var id int
			for id = range where { // any element; order does not matter here
				break
			}
			l := where[id]
			neigh := l.hex.Neighbors()
			to := neigh[rng.Intn(len(neigh))]
			err := net.Handoff(id, l.hex, to, float64(op))
			dst, inside := net.At(to)
			if !inside {
				if err == nil {
					t.Fatalf("op %d: handoff into missing cell %v succeeded", op, to)
				}
				continue
			}
			if err != nil {
				// Drop candidate: call must still be at the source.
				if c, ok := netStation(t, net, l.hex).Call(id); !ok || c.BU != l.bu {
					t.Fatalf("op %d: failed handoff lost call %d", op, id)
				}
				continue
			}
			if _, ok := netStation(t, net, l.hex).Call(id); ok {
				t.Fatalf("op %d: call %d still at source after handoff", op, id)
			}
			c, ok := dst.Call(id)
			if !ok || c.BU != l.bu || !c.Handoff {
				t.Fatalf("op %d: call %d at target = %+v,%v", op, id, c, ok)
			}
			where[id] = loc{hex: to, bu: l.bu}
		}
	}
	// Conservation: per-station Used matches the sum of tracked calls.
	usedByHex := make(map[geo.Hex]int)
	for _, l := range where {
		usedByHex[l.hex] += l.bu
	}
	for _, bs := range net.Stations() {
		if bs.Used() != usedByHex[bs.Hex()] {
			t.Fatalf("station %v used=%d, tracked %d", bs.Hex(), bs.Used(), usedByHex[bs.Hex()])
		}
	}
	if net.TotalUsed() != sumValues(usedByHex) {
		t.Fatalf("TotalUsed=%d, tracked %d", net.TotalUsed(), sumValues(usedByHex))
	}
}

func netStation(t *testing.T, n *Network, h geo.Hex) *BaseStation {
	t.Helper()
	bs, ok := n.At(h)
	if !ok {
		t.Fatalf("no station at %v", h)
	}
	return bs
}

func sumValues(m map[geo.Hex]int) int {
	var s int
	for _, v := range m {
		s += v
	}
	return s
}

// TestPoolTableInvariants churns a table with IDs drawn from a few
// colliding clusters plus random keys, then checks the open-addressing
// invariants and that a steady population never regrows the table.
func TestPoolTableInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := newLedgerPair(t, 1000)
	pool := make([]int, 0, 200)
	for top := uint64(0); top < 4; top++ {
		pool = append(pool, collidingIDs(top*300, 40)...)
	}
	for i := 0; i < 40; i++ {
		pool = append(pool, int(rng.Uint64()))
	}
	live := make(map[int]bool)
	size := 0
	for op := 0; op < 20000; op++ {
		id := pool[rng.Intn(len(pool))]
		if live[id] {
			p.release(t, id)
			delete(live, id)
		} else if len(live) < 48 {
			if err := p.admit(t, Call{ID: id, Class: traffic.Text, BU: 1}); err != nil {
				t.Fatal(err)
			}
			live[id] = true
		}
		if op == 1000 {
			size = len(p.bs.pool.table)
		}
	}
	p.checkAll(t)
	if got := len(p.bs.pool.table); got != size {
		t.Fatalf("table regrew from %d to %d slots at a bounded population", size, got)
	}
	// DetachCalls empties the table in place.
	p.bs.DetachCalls(nil)
	checkTable(t, &p.bs.pool)
	if p.bs.NumCalls() != 0 || len(p.bs.pool.table) != size {
		t.Fatalf("after DetachCalls: %d calls, %d slots", p.bs.NumCalls(), len(p.bs.pool.table))
	}
}

// TestAdmitReleaseSteadyStateZeroAllocs is the allocation-regression
// gate for the memory overhaul: once the pool has reached its
// working-set size, admit/release churn must not allocate.
func TestAdmitReleaseSteadyStateZeroAllocs(t *testing.T) {
	bs := newBS(t, 100000)
	// Warm the pool and the ID index to working-set size.
	const workingSet = 4096
	for i := 0; i < workingSet; i++ {
		if err := bs.Admit(Call{ID: i, Class: traffic.Voice, BU: 5}); err != nil {
			t.Fatal(err)
		}
	}
	id := workingSet
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := bs.Release(id - workingSet); err != nil {
			t.Fatal(err)
		}
		if err := bs.Admit(Call{ID: id, Class: traffic.Voice, BU: 5}); err != nil {
			t.Fatal(err)
		}
		id++
	})
	if allocs != 0 {
		t.Fatalf("steady-state admit/release allocates %.1f allocs/op, want 0", allocs)
	}
}

// FuzzCallPool replays an arbitrary byte string as admit/release/lookup
// operations against a station and the map oracle, and requires the
// same result and error for each. Call IDs arrive from the NDJSON
// intake, so they are hostile: each op byte picks the operation and a
// key mode, either eight raw bytes as the ID or a two-byte (home, tag)
// pair built to collide in the table. CI runs a bounded smoke
// (-fuzz=FuzzCallPool -fuzztime=10s).
func FuzzCallPool(f *testing.F) {
	raw := func(op byte, id int) []byte {
		return binary.LittleEndian.AppendUint64([]byte{op}, uint64(id))
	}
	var seed []byte
	for _, id := range []int{math.MinInt, -1, 0, math.MaxInt} {
		seed = append(seed, raw(0, id)...)
	}
	seed = append(seed, raw(1, -1)...)
	seed = append(seed, raw(2, math.MaxInt)...)
	f.Add(seed)
	seed = nil
	for tag := byte(0); tag < 12; tag++ {
		seed = append(seed, 0x80, 0xff, tag) // admit, wrapping cluster
	}
	for tag := byte(0); tag < 12; tag += 3 {
		seed = append(seed, 0x81, 0xff, tag, 0x82, 0xff, tag+1) // release, lookup
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := newLedgerPair(t, 64)
		for len(data) > 0 {
			b := data[0]
			data = data[1:]
			var id int
			if b&0x80 != 0 {
				if len(data) < 2 {
					break
				}
				id = idWithHash(uint64(data[0])<<56 | uint64(data[1]))
				data = data[2:]
			} else {
				if len(data) < 8 {
					break
				}
				id = int(binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
			switch (b & 0x7f) % 3 {
			case 0:
				class := traffic.Class(b>>2&3 + 1) // Text..Video, or invalid 4
				p.admit(t, Call{ID: id, Class: class, BU: class.BandwidthUnits() | 1, AdmittedAt: float64(b)})
			case 1:
				p.release(t, id)
			default:
				p.lookup(t, id)
			}
			p.checkCounters(t)
		}
		p.checkAll(t)
	})
}

// BenchmarkStationChurn prices the cell rung alone: round-robin
// admit+release across a 1027-station (18-ring), 40-BU network, each
// station holding four calls of rotating class. One op is one release
// and one admission.
func BenchmarkStationChurn(b *testing.B) {
	net, err := NewNetwork(NetworkConfig{Rings: 18, CapacityBU: DefaultCapacityBU})
	if err != nil {
		b.Fatal(err)
	}
	stations := net.Stations()
	n := len(stations)
	const perStation = 4
	call := func(id int) Call {
		class := traffic.Classes()[id%3]
		return Call{ID: id, Class: class, BU: class.BandwidthUnits()}
	}
	for id := 0; id < perStation*n; id++ {
		if err := stations[id%n].Admit(call(id)); err != nil {
			b.Fatal(err)
		}
	}
	id := perStation * n
	b.ReportAllocs()
	for b.Loop() {
		// The call admitted at this station perStation rounds ago leaves.
		bs := stations[id%n]
		if _, err := bs.Release(id - perStation*n); err != nil {
			b.Fatal(err)
		}
		if err := bs.Admit(call(id)); err != nil {
			b.Fatal(err)
		}
		id++
	}
}
