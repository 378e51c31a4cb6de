package sim

import (
	"runtime"
	"testing"
)

// TestFiredEventReleasesHandler pins the satellite bugfix: once an event
// fires, its record must not keep the Handler closure or the owner
// scheduler reachable.
func TestFiredEventReleasesHandler(t *testing.T) {
	s := NewScheduler()
	fired := false
	ev, err := s.At(1, func(*Scheduler) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if ev.fn == nil || ev.owner != s {
		t.Fatal("pending event should carry its handler and owner")
	}
	if !s.Step() || !fired {
		t.Fatal("event did not fire")
	}
	if ev.fn != nil {
		t.Fatal("fired event still references its handler closure")
	}
	if ev.owner != nil {
		t.Fatal("fired event still references its scheduler")
	}
}

// TestCancelReleasesHandler checks Cancel drops the closure immediately,
// before the lazily-deleted record drains from the queue.
func TestCancelReleasesHandler(t *testing.T) {
	s := NewScheduler()
	ev, err := s.At(1, func(*Scheduler) { t.Fatal("cancelled event fired") })
	if err != nil {
		t.Fatal(err)
	}
	ev.Cancel()
	if ev.fn != nil {
		t.Fatal("cancelled event still references its handler closure")
	}
	if s.Step() {
		t.Fatal("nothing should fire")
	}
}

// TestFiredHandlerStateCollectable verifies end to end that state
// captured by a fired handler becomes garbage-collectable even while the
// caller retains the *Event, which is the leak the fn/owner clearing
// exists to prevent.
func TestFiredHandlerStateCollectable(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation delays finalizer-observable collection")
	}
	s := NewScheduler()
	collected := false
	makeEvent := func() *Event {
		payload := &struct{ buf [1 << 16]byte }{}
		runtime.SetFinalizer(payload, func(*struct{ buf [1 << 16]byte }) { collected = true })
		ev, err := s.At(1, func(*Scheduler) { _ = payload.buf[0] })
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	ev := makeEvent()
	if !s.Step() {
		t.Fatal("event did not fire")
	}
	// A second Step recycles the fired record (deferred-by-one reuse).
	s.Step()
	for i := 0; i < 5 && !collected; i++ {
		runtime.GC()
	}
	if !collected {
		t.Fatal("handler-captured state survived firing; record still pins the closure")
	}
	_ = ev // the caller-held pointer must not keep the payload alive
}

// TestEventRecordsRecycled checks fired and cancelled records are served
// back out of the pool instead of freshly allocated.
func TestEventRecordsRecycled(t *testing.T) {
	s := NewScheduler()
	var fired int
	h := func(*Scheduler) { fired++ }
	for i := 0; i < 100; i++ {
		if _, err := s.After(1, h); err != nil {
			t.Fatal(err)
		}
		if !s.Step() {
			t.Fatal("no step")
		}
	}
	if fired != 100 {
		t.Fatalf("fired %d, want 100", fired)
	}
	// The first record cannot come from the pool, and the record fired at
	// step i is only recycled at step i+1, so at least 98 reuses.
	if s.pooled < 98 {
		t.Fatalf("pooled = %d, want >= 98", s.pooled)
	}
}

// TestSchedulerSteadyStateZeroAllocs is the allocation gate for the
// event pool: a self-rescheduling workload at steady state must run
// without per-event heap allocation.
func TestSchedulerSteadyStateZeroAllocs(t *testing.T) {
	s := NewScheduler()
	var h Handler
	h = func(s *Scheduler) {
		if _, err := s.After(1, h); err != nil {
			panic(err)
		}
	}
	if _, err := s.After(1, h); err != nil {
		t.Fatal(err)
	}
	// Warm-up: lets the pool reach steady state.
	s.Run(16)
	allocs := testing.AllocsPerRun(1000, func() {
		if !s.Step() {
			t.Fatal("no pending event")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestCancelDuringOwnFire pins the documented exception to the reuse
// contract: a handler may Cancel the event that is currently firing (the
// record is not recycled until the next Step), and doing so must not
// corrupt the cancelled-event bookkeeping.
func TestCancelDuringOwnFire(t *testing.T) {
	s := NewScheduler()
	var self *Event
	var err error
	self, err = s.At(1, func(*Scheduler) { self.Cancel() })
	if err != nil {
		t.Fatal(err)
	}
	if !s.Step() {
		t.Fatal("event did not fire")
	}
	if s.canceled != 0 {
		t.Fatalf("canceled counter = %d after self-cancel of a fired event, want 0", s.canceled)
	}
	// The recycled record must come back clean.
	ev2, err := s.At(2, func(*Scheduler) {})
	if err != nil {
		t.Fatal(err)
	}
	if ev2.canceled {
		t.Fatal("recycled record kept its cancelled flag")
	}
	if !s.Step() {
		t.Fatal("recycled event did not fire")
	}
}
