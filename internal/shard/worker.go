package shard

import (
	"runtime"
	"sync/atomic"
	"time"

	"facs/internal/serve"
)

// Slot states of a worker's hand-off slot. The caller posts a slice
// (empty -> posted); the worker claims it (posted -> claimed) and
// reports it (claimed -> done), or the caller takes it back unclaimed
// (posted -> empty). Only the caller resets done to empty.
const (
	slotEmpty int32 = iota
	slotPosted
	slotClaimed
	slotDone
)

// How the caller disposed of one non-first slice of the current chunk.
const (
	handNone   = iota // no slice for this shard in the chunk
	handInline        // not posted: the caller runs it
	handPosted        // posted to an awake worker
	handWoken         // posted to a parked worker the caller woke
)

// slicePath is a test hook forcing how non-first slices run.
type slicePath int

const (
	pathAdaptive slicePath = iota // the engine's measured policy
	pathWorker                    // always post and wake; never take back
	pathCaller                    // always post, never wake; take back
)

// worker is the persistent goroutine of one shard beyond shard 0. It
// runs the slices decideChunk posts to its slot, each under the
// shard's lock exactly as the caller would. After a slice that
// outlasted a wake it stays awake, yielding, for about as long as that
// slice took, so the next chunk's slice finds it running; then it
// parks on wake.
type worker struct {
	slot atomic.Int32
	// parked is set while the worker sleeps on wake, or is about to.
	parked atomic.Bool
	// wake carries one token that ends a park (capacity 1, sent
	// without blocking).
	wake chan struct{}
	// The posted slice's chunk, written by the caller before it posts
	// and read by whoever runs the slice.
	out []serve.Response
	enq time.Time
	// wokeAt is the engine-clock time of the caller's last wake signal;
	// the worker takes it when it wakes, to measure the wake latency.
	wokeAt atomic.Int64
	// nsPerReq estimates this shard's slice cost per request (an EWMA
	// over every slice of the shard, whoever ran it).
	nsPerReq atomic.Int64
	// hand is the caller's disposition of the current chunk's slice.
	hand int
}

// ewma folds one sample into an estimate with weight 1/8.
func ewma(est *atomic.Int64, sample int64) {
	old := est.Load()
	est.Store(old + (sample-old)/8)
}

// now reads the engine's monotonic clock in nanoseconds. It only
// schedules slices; no decision reads it.
func (e *Engine) now() int64 {
	return int64(time.Since(e.clock0)) //facs:wallclock slice scheduling only; every slice decides the same requests against the same state
}

// startWorkers starts one worker per shard beyond shard 0: a chunk
// routes to shard 0 first whenever shard 0 owns any of it, so shard 0's
// slice is never handed off.
//
//facs:coldpath runs once, in New
func (e *Engine) startWorkers() {
	e.clock0 = time.Now() //facs:wallclock origin of the slice-scheduling clock
	e.workers = make([]*worker, len(e.shards))
	for s := 1; s < len(e.shards); s++ {
		w := &worker{wake: make(chan struct{}, 1)}
		w.parked.Store(true)
		e.workers[s] = w
		e.workerWG.Add(1)
		go e.work(s, w)
	}
}

// stopWorkers asks every worker to exit and waits until all have.
// Workers finish a claimed slice first; a slice posted after the stop
// is never claimed, so its caller takes it back.
func (e *Engine) stopWorkers() {
	if e.stopped.CompareAndSwap(false, true) {
		for _, w := range e.workers {
			if w != nil {
				w.signal()
			}
		}
	}
	e.workerWG.Wait()
}

// signal leaves a wake token unless one is already pending.
func (w *worker) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// work is shard s's worker loop.
func (e *Engine) work(s int, w *worker) {
	defer e.workerWG.Done()
	var awake int64 // how long to stay awake after a slice
	for {
		if !w.parked.Load() {
			idle := e.now()
			for {
				if w.slot.Load() == slotPosted && w.slot.CompareAndSwap(slotPosted, slotClaimed) {
					awake = e.runPosted(s, w)
					idle = e.now()
					continue
				}
				if e.stopped.Load() {
					return
				}
				if e.now()-idle >= awake {
					break
				}
				runtime.Gosched()
			}
			w.parked.Store(true)
			// A slice posted while the worker was deciding to park is
			// either seen here or taken back by its caller.
			if w.slot.Load() == slotPosted && w.slot.CompareAndSwap(slotPosted, slotClaimed) {
				w.parked.Store(false)
				awake = e.runPosted(s, w)
				continue
			}
		}
		<-w.wake
		if e.stopped.Load() {
			return
		}
		// The wake is measured whether or not the caller took the
		// slice back meanwhile; a worker woken for nothing stays awake
		// only as long as a slice it finds.
		if t := w.wokeAt.Swap(0); t != 0 {
			ewma(&e.wakeNs, e.now()-t)
		}
		w.parked.Store(false)
		awake = 0
	}
}

// runPosted runs the slice the worker just claimed, feeds its cost
// into the shard's estimate and reports the slice done. It returns how long the worker should
// stay awake: as long as the slice took when that outlasts a wake,
// else 0. A worker yielding its processor between short slices would
// hold it from other goroutines (the arrival producer of a closed
// loop) for slices the caller runs inline anyway.
func (e *Engine) runPosted(s int, w *worker) int64 {
	t0 := e.now()
	e.decideSlice(s, w.out, w.enq)
	d := e.now() - t0
	ewma(&w.nsPerReq, d/int64(len(e.waveRoutes[s].reqs)))
	w.slot.Store(slotDone)
	if d <= e.wakeNs.Load() {
		return 0
	}
	return d
}

// hand disposes of shard s's non-first slice of the current chunk:
// post it to an awake worker; post it to a parked worker and wake it
// when the slice should outlast the wake; otherwise keep it for the
// caller. Declining a wake lets the wake estimate decay, so a stale
// high estimate is probed again.
func (e *Engine) hand(s int, out []serve.Response, enq time.Time) {
	w := e.workers[s]
	w.out, w.enq = out, enq
	w.hand = handPosted
	switch {
	case e.force == pathWorker:
		// Wake even an awake worker: it may park before it sees the
		// slice, and this path never takes a slice back.
		w.hand = handWoken
	case e.force == pathCaller || !w.parked.Load():
	case w.nsPerReq.Load()*int64(len(e.waveRoutes[s].reqs)) > e.wakeNs.Load():
		w.hand = handWoken
	default:
		wake := e.wakeNs.Load()
		e.wakeNs.Store(wake - wake/256)
		w.hand = handInline
	}
	if w.hand == handInline {
		return
	}
	w.slot.Store(slotPosted)
	if w.hand == handWoken {
		w.wokeAt.Store(e.now())
		w.signal()
	}
}

// collect completes the chunk's handed slices once the caller's own
// slice is done: it runs the inline ones, takes back every posted
// slice no worker has claimed, then waits for the claimed ones,
// yielding its processor meanwhile.
func (e *Engine) collect(out []serve.Response, enq time.Time) {
	for s, w := range e.workers {
		if w != nil && w.hand == handInline {
			e.runInline(s, w, out, enq)
			e.fanInline.Add(1)
		}
	}
	for s, w := range e.workers {
		if w == nil || (w.hand != handPosted && w.hand != handWoken) || e.force == pathWorker {
			continue
		}
		if w.slot.CompareAndSwap(slotPosted, slotEmpty) {
			w.hand = handInline
			e.runInline(s, w, out, enq)
			e.fanTakenBack.Add(1)
		}
	}
	for _, w := range e.workers {
		if w == nil || w.hand == handNone {
			continue
		}
		if w.hand != handInline {
			for w.slot.Load() != slotDone {
				runtime.Gosched()
			}
			w.slot.Store(slotEmpty)
			if w.hand == handWoken {
				e.fanWoken.Add(1)
			} else {
				e.fanAwake.Add(1)
			}
		}
		w.hand = handNone
	}
}

// runInline runs shard s's slice on the caller and feeds its cost into
// the shard's estimate.
func (e *Engine) runInline(s int, w *worker, out []serve.Response, enq time.Time) {
	t0 := e.now()
	e.decideSlice(s, out, enq)
	ewma(&w.nsPerReq, (e.now()-t0)/int64(len(e.waveRoutes[s].reqs)))
}
