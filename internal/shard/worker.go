package shard

import (
	"runtime"
	"sync/atomic"
	"time"

	"facs/internal/serve"
)

// Slot states of a shard's hand-off slot. The caller posts a slice
// (empty -> posted); the helper claims it (posted -> claimed) and
// reports it (claimed -> done), or the caller takes it back unclaimed
// (posted -> empty). Only the caller resets done to empty.
const (
	slotEmpty int32 = iota
	slotPosted
	slotClaimed
	slotDone
)

// slot is the hand-off slot of one shard beyond shard 0: a chunk routes
// to shard 0 first whenever shard 0 owns any of it, so shard 0's slice
// is never posted.
type slot struct {
	state atomic.Int32
	// The posted slice's chunk, set by the caller before it posts.
	out []serve.Response
	enq time.Time
}

// helper is the engine's one helper goroutine. It runs posted slices of
// any shard beyond shard 0 and, between them, the background step a
// driver handed it (Background).
type helper struct {
	// parked is set while the helper sleeps on wake, or is about to.
	parked atomic.Bool
	// wake carries one token that ends a park, sent without blocking.
	wake chan struct{}
	step atomic.Pointer[func() bool]
}

// startHelper lays out one hand-off slot per shard beyond shard 0 and,
// given a second CPU, starts the helper. One helper serves every shard,
// so a chunk decides on at most two goroutines: the caller and the
// helper.
//
//facs:coldpath runs once, in New
func (e *Engine) startHelper() {
	e.slots = make([]*slot, len(e.shards))
	for s := 1; s < len(e.shards); s++ {
		e.slots[s] = &slot{}
	}
	if len(e.shards) < 2 || runtime.GOMAXPROCS(0) < 2 {
		return
	}
	e.helper = &helper{wake: make(chan struct{}, 1)}
	e.helperWG.Add(1)
	go e.help(e.helper)
}

// stopHelper asks the helper to exit and waits until it has. It
// finishes a claimed slice first; a slice posted after the stop is
// never claimed, so its caller takes it back.
func (e *Engine) stopHelper() {
	if e.helper != nil && e.stopped.CompareAndSwap(false, true) {
		e.helper.signal()
	}
	e.helperWG.Wait()
}

// Background hands the engine work for its helper to do between
// slices: the helper calls step whenever no slice is posted, never
// concurrently with itself, and step reports whether the helper should
// stay awake (it did some work, or its owner is about to post slices).
// Once step returns false the helper parks until the returned wake is
// called or a slice is posted. Without a helper (GOMAXPROCS 1 or one
// shard) Background returns nil and step never runs. Install at most
// one step, before the waves it should overlap.
//
//facs:coldpath runs once per driver, before its first wave
func (e *Engine) Background(step func() bool) (wake func()) {
	h := e.helper
	if h == nil {
		return nil
	}
	h.step.Store(&step)
	h.signal()
	return h.nudge
}

// signal leaves a wake token unless one is already pending.
func (h *helper) signal() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// nudge wakes the helper if it is parked.
func (h *helper) nudge() {
	if h.parked.Load() {
		h.signal()
	}
}

// help is the helper's loop. It runs every slice it can claim; between
// slices it runs its background step, if any, and yield-polls while
// the step or a multi-chunk wave keeps it awake. Otherwise it parks.
func (e *Engine) help(h *helper) {
	defer e.helperWG.Done()
	woken := false
	for {
		switch s := e.claim(); {
		case s > 0:
			sl := e.slots[s]
			e.decideSlice(s, sl.out, sl.enq)
			if woken {
				e.fanWoken.Add(1)
			} else {
				e.fanAwake.Add(1)
			}
			sl.state.Store(slotDone)
			woken = false
		case e.stopped.Load():
			return
		case e.awake(h):
			runtime.Gosched()
		case !h.parked.Swap(true):
			// Look once more with parked set: a post, wave, wake or
			// stop that comes after that look finds it set.
			continue
		default:
			<-h.wake
			woken = true
		}
		// Clear parked only when set: a store on every round would
		// keep taking its cache line from the cores that read it.
		if h.parked.Load() {
			h.parked.Store(false)
		}
	}
}

// awake runs the helper's background step, if it has one, and reports
// whether the helper should stay awake: the step asks it to, or a
// multi-chunk wave is being decided.
func (e *Engine) awake(h *helper) bool {
	if step := h.step.Load(); step != nil && (*step)() {
		return true
	}
	return e.deciding.Load()
}

// claim claims the first posted slice and returns its shard, or 0 when
// none is posted.
func (e *Engine) claim() int {
	for s := 1; s < len(e.slots); s++ {
		st := &e.slots[s].state
		if st.Load() == slotPosted && st.CompareAndSwap(slotPosted, slotClaimed) {
			return s
		}
	}
	return 0
}

// post posts shard s's non-first slice of the current chunk for the
// helper to claim, waking it if it is parked; a slice the helper does
// not claim in time runs on the caller. Without a helper it leaves the
// slice to collect.
func (e *Engine) post(s int, out []serve.Response, enq time.Time) {
	h := e.helper
	if h == nil {
		return
	}
	sl := e.slots[s]
	sl.out, sl.enq = out, enq
	sl.state.Store(slotPosted)
	h.nudge()
}

// collect completes the slices of the current chunk beyond the caller's
// own (shard first's) once that is done: it runs every slice the helper
// has not claimed, taking posted ones back, then waits, yielding, for
// the slice the helper is running.
func (e *Engine) collect(first int, out []serve.Response, enq time.Time) {
	for s := first + 1; s < len(e.slots); s++ {
		switch {
		case len(e.waveRoutes[s].idx) == 0:
			continue
		case e.helper == nil:
			e.fanInline.Add(1)
		case !e.noTakeBack.Load() && e.slots[s].state.CompareAndSwap(slotPosted, slotEmpty):
			e.fanTakenBack.Add(1)
		default:
			continue
		}
		e.decideSlice(s, out, enq)
	}
	for s := first + 1; s < len(e.slots); s++ {
		sl := e.slots[s]
		if sl.state.Load() == slotEmpty {
			continue
		}
		for sl.state.Load() != slotDone {
			runtime.Gosched()
		}
		sl.state.Store(slotEmpty)
	}
}
