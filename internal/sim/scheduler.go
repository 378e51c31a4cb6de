package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Handler is the callback attached to one event. It receives the scheduler
// so it can schedule follow-up events.
type Handler func(s *Scheduler)

// Event is a pending scheduled callback. Obtain events from Scheduler.At or
// Scheduler.After; Cancel prevents a pending event from firing.
//
// Event records are pooled: once an event has fired (or been cancelled
// and discarded), its record may be reused by a later At/After call.
// Holding an *Event past its firing is safe only for the duration of the
// handler that observed the fire (records are recycled one Step later);
// Cancel must not be called on an event after it has fired, except from
// within the currently-running handler.
type Event struct {
	at       float64
	seq      uint64
	fn       Handler
	owner    *Scheduler
	canceled bool
	index    int // heap index, -1 once popped
	poolNext *Event
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancelled events are deleted
// lazily: they stay in the queue until popped or until the scheduler
// compacts it (see Scheduler.compact). The handler closure is dropped
// immediately so captured state is collectable before the record drains.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	e.fn = nil
	if e.index >= 0 && e.owner != nil {
		e.owner.canceled++
		e.owner.maybeCompact()
	}
}

// Scheduler is a discrete-event executor. The zero value is not usable;
// construct with NewScheduler.
//
// A Scheduler is single-threaded by design: all events run on the goroutine
// that calls Step or Run.
type Scheduler struct {
	now      float64
	seq      uint64
	pq       eventHeap
	canceled int    // cancelled events still sitting in pq
	pool     *Event // free list of recycled event records
	fired    *Event // last fired event, recycled at the next Step
	// executed, compacts and pooled count fired events, bulk
	// compactions and records served from the pool instead of the heap
	// allocator; the scheduler's tests read them.
	executed, compacts, pooled uint64
}

// compactMinLen is the queue size below which compaction is not worth
// the heap rebuild: small queues drain cancelled events quickly anyway.
const compactMinLen = 64

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulation time in seconds.
func (s *Scheduler) Now() float64 { return s.now }

// Len returns the number of pending events, including cancelled events
// that have not yet been discarded.
func (s *Scheduler) Len() int { return len(s.pq) }

// recycle clears an event record and pushes it onto the free list. The
// record must no longer be in the queue.
func (s *Scheduler) recycle(ev *Event) {
	*ev = Event{index: -1, poolNext: s.pool}
	s.pool = ev
}

// At schedules fn at absolute simulation time t. Scheduling in the past or
// with a non-finite time is an error. The returned *Event may be a
// recycled record; see the Event reuse contract.
func (s *Scheduler) At(t float64, fn Handler) (*Event, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("sim: event time must be finite, got %v", t)
	}
	if t < s.now {
		return nil, fmt.Errorf("sim: cannot schedule at %v before now %v", t, s.now)
	}
	if fn == nil {
		return nil, fmt.Errorf("sim: event handler must not be nil")
	}
	var ev *Event
	if s.pool != nil {
		ev = s.pool
		s.pool = ev.poolNext
		*ev = Event{at: t, seq: s.seq, fn: fn, owner: s}
		s.pooled++
	} else {
		ev = &Event{at: t, seq: s.seq, fn: fn, owner: s}
	}
	s.seq++
	heap.Push(&s.pq, ev)
	return ev, nil
}

// maybeCompact discards cancelled events in one pass once they make up
// more than half of a non-trivial queue. Without it, workloads that
// cancel most of what they schedule (mobile-heavy runs cancel a
// move-or-end event per handoff and per drop) grow the queue without
// bound: lazily deleted events are only freed when their firing time is
// reached. Compaction preserves execution order — the heap is rebuilt
// from the surviving events, whose (time, seq) order is total.
func (s *Scheduler) maybeCompact() {
	if len(s.pq) < compactMinLen || 2*s.canceled <= len(s.pq) {
		return
	}
	live := s.pq[:0]
	for _, ev := range s.pq {
		if ev.canceled {
			s.recycle(ev)
			continue
		}
		ev.index = len(live)
		live = append(live, ev)
	}
	// Zero the abandoned tail so the queue holds no stale pointers.
	for i := len(live); i < len(s.pq); i++ {
		s.pq[i] = nil
	}
	s.pq = live
	heap.Init(&s.pq)
	s.canceled = 0
	s.compacts++
}

// After schedules fn d seconds from now. Negative delays are errors. The
// returned *Event may be a recycled record; see the Event reuse contract.
func (s *Scheduler) After(d float64, fn Handler) (*Event, error) {
	if math.IsNaN(d) || d < 0 {
		return nil, fmt.Errorf("sim: delay must be >= 0, got %v", d)
	}
	return s.At(s.now+d, fn)
}

// Step fires the next pending event, if any, and reports whether one fired.
// Cancelled events are discarded silently without counting as a step.
//
// The fired event's handler and owner are cleared before the handler
// runs, so a popped record keeps no captured call state alive; the
// record itself is recycled at the following Step, which keeps the
// event pointer valid for the handler that is observing the fire.
func (s *Scheduler) Step() bool {
	if s.fired != nil {
		s.recycle(s.fired)
		s.fired = nil
	}
	for len(s.pq) > 0 {
		ev := heap.Pop(&s.pq).(*Event)
		if ev.canceled {
			s.canceled--
			s.recycle(ev)
			continue
		}
		s.now = ev.at
		s.executed++
		fn := ev.fn
		ev.fn = nil
		ev.owner = nil
		s.fired = ev
		fn(s)
		return true
	}
	return false
}

// Run fires events until none remain. maxEvents bounds the run as a
// safeguard against runaway self-scheduling; zero means no bound. It
// returns the number of events fired.
func (s *Scheduler) Run(maxEvents uint64) uint64 {
	var n uint64
	for {
		if maxEvents > 0 && n >= maxEvents {
			return n
		}
		if !s.Step() {
			return n
		}
		n++
	}
}

// eventHeap orders events by time, breaking ties by schedule sequence so
// that runs are deterministic.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
