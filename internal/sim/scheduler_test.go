package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		if _, err := s.At(at, func(*Scheduler) { fired = append(fired, at) }); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Run(0); n != 5 {
		t.Fatalf("Run fired %d events, want 5", n)
	}
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %v, want 5", s.Now())
	}
	if s.executed != 5 {
		t.Fatalf("executed = %d, want 5", s.executed)
	}
}

func TestSchedulerTieBreaksBySequence(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := s.At(7, func(*Scheduler) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(0)
	for i := range order {
		if order[i] != i {
			t.Fatalf("ties fired out of schedule order: %v", order)
		}
	}
}

func TestSchedulerAfterAndNesting(t *testing.T) {
	s := NewScheduler()
	var times []float64
	if _, err := s.After(1, func(s *Scheduler) {
		times = append(times, s.Now())
		if _, err := s.After(2, func(s *Scheduler) {
			times = append(times, s.Now())
		}); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v, want [1 3]", times)
	}
}

func TestSchedulerErrors(t *testing.T) {
	s := NewScheduler()
	if _, err := s.At(math.NaN(), func(*Scheduler) {}); err == nil {
		t.Fatal("NaN time should error")
	}
	if _, err := s.At(math.Inf(1), func(*Scheduler) {}); err == nil {
		t.Fatal("Inf time should error")
	}
	if _, err := s.At(1, nil); err == nil {
		t.Fatal("nil handler should error")
	}
	if _, err := s.After(-1, func(*Scheduler) {}); err == nil {
		t.Fatal("negative delay should error")
	}
	if _, err := s.At(5, func(*Scheduler) {}); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if _, err := s.At(4, func(*Scheduler) {}); err == nil {
		t.Fatal("scheduling in the past should error")
	}
}

func TestEventCancel(t *testing.T) {
	s := NewScheduler()
	var fired int
	ev, err := s.At(1, func(*Scheduler) { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(2, func(*Scheduler) { fired++ }); err != nil {
		t.Fatal(err)
	}
	ev.Cancel()
	if !ev.canceled {
		t.Fatal("event should be marked cancelled")
	}
	if n := s.Run(0); n != 1 {
		t.Fatalf("Run fired %d, want 1", n)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	ev.Cancel() // cancelling again is a no-op
}

func TestRunMaxEventsBound(t *testing.T) {
	s := NewScheduler()
	var spawn func(*Scheduler)
	spawn = func(s *Scheduler) {
		if _, err := s.After(1, spawn); err != nil {
			t.Error(err)
		}
	}
	if _, err := s.After(1, spawn); err != nil {
		t.Fatal(err)
	}
	if n := s.Run(100); n != 100 {
		t.Fatalf("bounded Run fired %d, want 100", n)
	}
}

func TestStepOnEmpty(t *testing.T) {
	s := NewScheduler()
	if s.Step() {
		t.Fatal("Step on empty scheduler should report false")
	}
}

func TestSchedulerOrderingProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		s := NewScheduler()
		var fired []float64
		for _, r := range raw {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				continue
			}
			at := math.Abs(math.Mod(r, 1e6))
			if _, err := s.At(at, func(*Scheduler) { fired = append(fired, s.Now()) }); err != nil {
				return false
			}
		}
		s.Run(0)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionDiscardsCancelledEvents pins the lazy-delete leak fix:
// cancelling most of a large queue must shrink it immediately instead of
// carrying the corpses until their firing times.
func TestCompactionDiscardsCancelledEvents(t *testing.T) {
	s := NewScheduler()
	var events []*Event
	for i := 0; i < 1000; i++ {
		ev, err := s.At(float64(i), func(*Scheduler) {})
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	// Cancel every second event: at just over half cancelled, the queue
	// must compact down to the live events.
	for i := 0; i < len(events); i += 2 {
		events[i].Cancel()
	}
	events[1].Cancel()
	if got := s.Len(); got > 500 {
		t.Fatalf("queue holds %d events after cancelling ~half, want compaction to <= 500", got)
	}
	if s.compacts == 0 {
		t.Fatal("compaction should have run")
	}
	// Double-cancel must not corrupt the cancelled counter.
	events[3].Cancel()
	events[3].Cancel()
	if fired := s.Run(0); fired != 498 {
		t.Fatalf("fired %d events, want 498 live ones", fired)
	}
}

// TestCompactionPreservesOrder asserts compaction mid-run does not
// change the deterministic firing order.
func TestCompactionPreservesOrder(t *testing.T) {
	run := func(cancelHalf bool) []float64 {
		s := NewScheduler()
		var fired []float64
		var events []*Event
		for i := 0; i < 400; i++ {
			at := float64((i * 7919) % 1000)
			ev, err := s.At(at, func(*Scheduler) { fired = append(fired, s.Now()) })
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, ev)
		}
		if cancelHalf {
			for i := 1; i < len(events); i += 2 {
				events[i].Cancel()
			}
		}
		s.Run(0)
		return fired
	}
	baseline := run(false)
	compacted := run(true)
	// The compacted run fires exactly the even-indexed events, in the
	// same relative order as the full run fires them.
	want := make(map[float64]int)
	for _, at := range baseline {
		want[at]++
	}
	prev := -1.0
	for _, at := range compacted {
		if want[at] == 0 {
			t.Fatalf("compacted run fired unexpected time %v", at)
		}
		if at < prev {
			t.Fatalf("ordering violated: %v after %v", at, prev)
		}
		prev = at
	}
}

// TestSmallQueueSkipsCompaction: tiny queues drain lazily as before.
func TestSmallQueueSkipsCompaction(t *testing.T) {
	s := NewScheduler()
	var events []*Event
	for i := 0; i < 10; i++ {
		ev, err := s.At(float64(i), func(*Scheduler) {})
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	for _, ev := range events {
		ev.Cancel()
	}
	if s.compacts != 0 {
		t.Fatal("small queues should not pay for compaction")
	}
	if fired := s.Run(0); fired != 0 {
		t.Fatalf("fired %d cancelled events", fired)
	}
}
