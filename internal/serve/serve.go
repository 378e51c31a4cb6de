package serve

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/gps"
)

// Defaults applied by New when the corresponding Config field is zero.
const (
	// DefaultMaxBatch is the micro-batch size cap.
	DefaultMaxBatch = 64
	// DefaultMaxDelay is how long the batcher waits for more requests
	// after the first pending one before deciding a short batch.
	DefaultMaxDelay = 200 * time.Microsecond
)

// ErrClosed is returned by Submit/SubmitAll/ops after Close.
var ErrClosed = errors.New("serve: service is closed")

// Config parameterises a Service.
type Config struct {
	// Controller renders the admission decisions. Controllers with a
	// native batch path (cac.BatchController) are amortised through
	// cac.DecideAll; any other controller is decided sequentially
	// inside the loop with identical outcomes. Required.
	Controller cac.Controller

	// MaxBatch caps how many requests one DecideBatch call may carry
	// (default DefaultMaxBatch). Waves larger than MaxBatch are split
	// into deterministic MaxBatch-sized chunks.
	MaxBatch int

	// MaxDelay bounds how long the first pending request may wait for
	// the batch to fill (default DefaultMaxDelay). Zero after defaults
	// are applied is impossible; a negative value selects greedy mode:
	// never wait, batch only what is already queued.
	MaxDelay time.Duration

	// Queue is the intake channel capacity (default 4 x MaxBatch).
	// Submitters block once it is full, providing natural backpressure.
	Queue int

	// Commit makes the service the owner of station state: an accepted
	// request is immediately allocated on its station (cell.Admit) and
	// observers (cac.Observer) are notified, before any later request
	// or op is processed; Release deallocates. Without Commit the
	// service never mutates stations — decisions are rendered against
	// whatever state the caller maintains, and arbitrary micro-batch
	// boundaries provably cannot change any outcome.
	Commit bool
}

// Response is the outcome of one streamed admission request.
type Response struct {
	// Decision is the controller's verdict.
	Decision cac.Decision
	// Committed reports that the service allocated the call on its
	// station (Commit mode only). An accepted request can fail to
	// commit when earlier accepts in its own micro-batch — decided
	// against the same snapshot, per the DecideBatch contract — already
	// claimed the remaining bandwidth; Err then carries the cause.
	Committed bool
	// Err is the decision or commit error, if any. A decision error
	// forces Decision to Reject.
	Err error
	// Latency is the time from enqueue to decided (including commit).
	Latency time.Duration
	// Batch is the size of the micro-batch that carried the request.
	Batch int
}

// LatencyBuckets is the number of power-of-two histogram buckets in
// Stats.LatencyHist: bucket i counts latencies in [2^(i-1), 2^i)
// nanoseconds (bucket 0 holds sub-nanosecond measurements), which spans
// every representable time.Duration.
const LatencyBuckets = 64

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	// Submitted counts requests accepted into the intake queue;
	// Decided counts requests answered (equal once drained).
	Submitted, Decided int64
	// Accepted / Rejected split Decided by outcome; Committed counts
	// accepted requests actually allocated (Commit mode).
	Accepted, Rejected, Committed int64
	// Batches counts DecideBatch calls; MaxBatch is the largest batch
	// realised; Waves counts SubmitAll calls.
	Batches, Waves int64
	MaxBatch       int
	// Ops counts serialized control operations (ticks, releases, state
	// updates, Do barriers); Ticks the OnTick deliveries among them.
	Ops, Ticks int64
	// CommitErrs counts accepted-but-uncommitted requests; OpErrs
	// counts failed releases.
	CommitErrs, OpErrs int64
	// AvgLatency / MaxLatency aggregate Response.Latency over every
	// decided request.
	AvgLatency, MaxLatency time.Duration
	// LatencyHist is the per-request latency histogram over
	// power-of-two buckets (see LatencyBuckets): the source for the
	// LatencyQuantile / P50Latency / P99Latency percentiles. A wave's
	// requests complete together, so its latency weighs once per
	// request, exactly like AvgLatency. Histograms from several
	// services add field-wise, which is how the sharded engine
	// aggregates engine-level percentiles.
	LatencyHist [LatencyBuckets]int64
}

// Merge returns the field-wise aggregation of two snapshots, the merge
// the sharded engine applies across its per-shard services: counters
// sum, MaxBatch/MaxLatency take the maximum, AvgLatency is weighted by
// decided requests, and the latency histograms add bucket-wise (so the
// merged LatencyQuantile estimates hold engine-wide).
func (s Stats) Merge(o Stats) Stats {
	latSum := int64(s.AvgLatency)*s.Decided + int64(o.AvgLatency)*o.Decided
	s.Submitted += o.Submitted
	s.Decided += o.Decided
	s.Accepted += o.Accepted
	s.Rejected += o.Rejected
	s.Committed += o.Committed
	s.Batches += o.Batches
	s.Waves += o.Waves
	s.Ops += o.Ops
	s.Ticks += o.Ticks
	s.CommitErrs += o.CommitErrs
	s.OpErrs += o.OpErrs
	if o.MaxBatch > s.MaxBatch {
		s.MaxBatch = o.MaxBatch
	}
	if o.MaxLatency > s.MaxLatency {
		s.MaxLatency = o.MaxLatency
	}
	if s.Decided > 0 {
		s.AvgLatency = time.Duration(latSum / s.Decided)
	}
	for b := range o.LatencyHist {
		s.LatencyHist[b] += o.LatencyHist[b]
	}
	return s
}

// LatencyQuantile returns the latency at quantile q in [0, 1],
// estimated from the power-of-two histogram by linear interpolation
// inside the covering bucket (so the estimate is within 2x of the true
// order statistic). It returns 0 when nothing has been decided.
func (s Stats) LatencyQuantile(q float64) time.Duration {
	var total int64
	for _, n := range s.LatencyHist {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range s.LatencyHist {
		if n == 0 {
			continue
		}
		seen += n
		if seen < rank {
			continue
		}
		lo := int64(0)
		hi := int64(1) // bucket 0: [0, 1) ns
		if i > 0 {
			lo = int64(1) << (i - 1)
			if i == LatencyBuckets-1 {
				// The top bucket's upper edge 2^63 overflows int64;
				// interpolate towards the widest representable latency
				// instead of wrapping negative (which put the estimate
				// below the bucket floor).
				hi = math.MaxInt64
			} else {
				hi = lo * 2
			}
		}
		// Interpolate by the rank's position among this bucket's counts,
		// clamped to the exact maximum (sparse buckets can otherwise
		// interpolate past it). The float comparison guards the int64
		// conversion: in the top bucket the interpolant can round up to
		// 2^63, one past MaxInt64.
		est := time.Duration(hi)
		if f := float64(lo) + float64(rank-(seen-n))/float64(n)*float64(hi-lo); f < float64(hi) {
			est = time.Duration(f)
		}
		if s.MaxLatency > 0 && est > s.MaxLatency {
			est = s.MaxLatency
		}
		return est
	}
	return s.MaxLatency
}

// P50Latency returns the median per-request latency.
func (s Stats) P50Latency() time.Duration { return s.LatencyQuantile(0.50) }

// P99Latency returns the 99th-percentile per-request latency.
func (s Stats) P99Latency() time.Duration { return s.LatencyQuantile(0.99) }

// AcceptRate returns Accepted/Decided in [0, 1] (0 when idle).
func (s Stats) AcceptRate() float64 {
	if s.Decided == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Decided)
}

// AvgBatch returns the mean realised micro-batch size.
func (s Stats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Decided) / float64(s.Batches)
}

// String renders a one-line operator summary.
func (s Stats) String() string {
	return fmt.Sprintf("decided %d (%.1f%% accept) in %d batches (avg %.1f, max %d), latency avg %s p50 %s p99 %s max %s, ops %d",
		s.Decided, 100*s.AcceptRate(), s.Batches, s.AvgBatch(), s.MaxBatch,
		s.AvgLatency, s.P50Latency(), s.P99Latency(), s.MaxLatency, s.Ops)
}

// pending is one in-flight single request.
type pending struct {
	req   cac.Request
	enq   time.Time
	reply chan Response
}

// wave is one SubmitAll / SubmitAllInto call: a caller-defined batch
// that is decided as a unit, split only at deterministic MaxBatch
// boundaries. out is the response buffer the loop fills (caller-owned
// for SubmitAllInto, allocated by SubmitAll).
type wave struct {
	reqs  []cac.Request
	out   []Response
	enq   time.Time
	reply chan []Response
}

// op is one serialized control operation.
type op struct {
	fn   func(ctrl cac.Controller)
	done chan struct{} // non-nil for synchronous ops
}

// item is one intake-queue entry; exactly one field is set.
type item struct {
	single *pending
	wave   *wave
	op     *op
}

// queue is the intake shared by Service and Intake: a bounded channel
// of items that refuses sends after close, drained by one loop
// goroutine that coalesces consecutive single requests into
// micro-batches.
type queue struct {
	in       chan item
	done     chan struct{}
	mu       sync.RWMutex // guards closed against in-flight sends
	closed   bool
	maxBatch int
	maxDelay time.Duration
	batch    []*pending // gather scratch, owned by the loop goroutine
}

func newQueue(cfg Config) queue {
	return queue{
		in:       make(chan item, cfg.Queue),
		done:     make(chan struct{}),
		maxBatch: cfg.MaxBatch,
		maxDelay: cfg.MaxDelay,
		batch:    make([]*pending, 0, cfg.MaxBatch),
	}
}

// send enqueues an item unless the queue is closed. The read lock is
// held across the channel send so shutdown cannot close the channel
// under an in-flight submitter.
func (q *queue) send(it item) error {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return ErrClosed
	}
	q.in <- it
	return nil
}

// shutdown stops intake and waits for the loop to drain the queue and
// exit. Idempotent.
func (q *queue) shutdown() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.in)
	}
	q.mu.Unlock()
	<-q.done
}

// run is the loop goroutine: every item goes to handle, in queue order.
// handle returns the item that interrupted a micro-batch, if any, so it
// is handled next — strictly after the requests that preceded it.
func (q *queue) run(handle func(it item) *item) {
	defer close(q.done)
	for it := range q.in {
		for next := handle(it); next != nil; {
			next = handle(*next)
		}
	}
}

// gather grows a micro-batch from the first pending request until
// maxBatch, maxDelay after enqueue of the first request, or a
// non-single item interrupts. It returns the batch (valid until the
// next gather) and the interrupting item, if any.
func (q *queue) gather(first *pending) ([]*pending, *item) {
	batch := append(q.batch[:0], first)
	var interrupt *item
	if q.maxDelay > 0 && q.maxBatch > 1 {
		wait := q.maxDelay - time.Since(first.enq) //facs:wallclock shapes batch boundaries only; the outcome contracts pin decision equality across batchings
		if wait > 0 {
			timer := time.NewTimer(wait)
		fill:
			for len(batch) < q.maxBatch {
				select {
				case it, ok := <-q.in:
					if !ok {
						break fill
					}
					if it.single != nil {
						batch = append(batch, it.single)
					} else {
						interrupt = &it
						break fill
					}
				case <-timer.C:
					break fill
				}
			}
			timer.Stop()
		}
	}
	// Greedy tail: take whatever is already queued without waiting.
	if interrupt == nil {
	drain:
		for len(batch) < q.maxBatch {
			select {
			case it, ok := <-q.in:
				if !ok {
					break drain
				}
				if it.single != nil {
					batch = append(batch, it.single)
				} else {
					interrupt = &it
					break drain
				}
			default:
				break drain
			}
		}
	}
	q.batch = batch
	return batch, interrupt
}

// Service is a streaming admission front end over an admission
// controller: concurrent submitters enqueue requests, a single loop
// goroutine coalesces them into micro-batches (bounded by MaxBatch and
// MaxDelay), decides each batch through cac.DecideAll, and fans the
// responses back with per-request latency. Control operations — ticks,
// releases, kinematic updates — travel the same queue and execute in
// the same goroutine, strictly ordered against decisions, so stateful
// controllers (e.g. the SCC demand ledger) keep their invariants
// without any locking of their own.
type Service struct {
	cfg Config
	q   queue

	// Loop-local scratch, reused across micro-batches.
	reqScratch []cac.Request
	outScratch []Response
	decScratch []cac.Decision

	submitted  atomic.Int64
	decided    atomic.Int64
	accepted   atomic.Int64
	rejected   atomic.Int64
	committed  atomic.Int64
	batches    atomic.Int64
	waves      atomic.Int64
	ops        atomic.Int64
	ticks      atomic.Int64
	commitErrs atomic.Int64
	opErrs     atomic.Int64
	maxBatch   atomic.Int64
	latSumNs   atomic.Int64
	latMaxNs   atomic.Int64
	latHist    [LatencyBuckets]atomic.Int64
}

// withDefaults validates the batching fields and applies their
// defaults.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBatch < 1 {
		return cfg, fmt.Errorf("serve: MaxBatch must be >= 1, got %d", cfg.MaxBatch)
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = DefaultMaxDelay
	}
	if cfg.Queue == 0 {
		cfg.Queue = 4 * cfg.MaxBatch
	}
	if cfg.Queue < 1 {
		return cfg, fmt.Errorf("serve: Queue must be >= 1, got %d", cfg.Queue)
	}
	return cfg, nil
}

// New validates the configuration, applies defaults and starts the
// decision loop. The returned service is live until Close.
func New(cfg Config) (*Service, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("serve: config needs a controller")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:        cfg,
		q:          newQueue(cfg),
		reqScratch: make([]cac.Request, 0, cfg.MaxBatch),
		outScratch: make([]Response, cfg.MaxBatch),
		decScratch: make([]cac.Decision, cfg.MaxBatch),
	}
	go s.q.run(s.handle)
	return s, nil
}

// Controller returns the wrapped controller. Reading mutable controller
// state concurrently with the loop is racy; use Do for a serialized
// view.
func (s *Service) Controller() cac.Controller { return s.cfg.Controller }

// Submit enqueues one request and blocks until its decision. It is safe
// for any number of concurrent callers; requests from one goroutine are
// decided in submission order. The decision (or error) is carried in
// the Response.
func (s *Service) Submit(req cac.Request) Response {
	return <-s.SubmitAsync(req)
}

// SubmitAsync enqueues one request and returns immediately with a
// buffered channel that will carry exactly one Response. It lets a
// single producer keep the intake queue full (and the micro-batcher
// well fed) without one blocked round trip per request; the enqueue
// order — and therefore the decision order — is the call order. After
// Close the response carries ErrClosed.
func (s *Service) SubmitAsync(req cac.Request) <-chan Response {
	p := &pending{req: req, enq: time.Now(), reply: make(chan Response, 1)} //facs:wallclock latency stamp; feeds the latency gauges only
	s.submitted.Add(1)
	if err := s.q.send(item{single: p}); err != nil {
		s.submitted.Add(-1)
		p.reply <- Response{Decision: cac.Reject, Err: err}
	}
	return p.reply
}

// SubmitAll enqueues a caller-defined batch (a "wave") and blocks until
// every decision is rendered, returning responses in request order. A
// wave is decided as a unit: it never coalesces with other traffic, and
// it is split only at MaxBatch boundaries — deterministically, never by
// timing — so closed-loop drivers that need reproducible outcomes
// stream waves. In Commit mode, accepted calls of one chunk are
// allocated before the next chunk is decided.
func (s *Service) SubmitAll(reqs []cac.Request) ([]Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([]Response, len(reqs))
	if err := s.SubmitAllInto(reqs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitAllInto is SubmitAll with a caller-owned response buffer: the
// wave's responses are written into out[:len(reqs)] instead of a fresh
// slice, so closed-loop drivers reuse one buffer across millions of
// waves. out must hold at least len(reqs) entries; outcomes are
// identical to SubmitAll in every respect. The buffer must not be read
// until SubmitAllInto returns, and is safe to reuse immediately
// afterwards.
//
//facs:hotpath
func (s *Service) SubmitAllInto(reqs []cac.Request, out []Response) error {
	if len(reqs) == 0 {
		return nil
	}
	if len(out) < len(reqs) {
		return fmt.Errorf("serve: response buffer too short: %d requests, %d slots", len(reqs), len(out)) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	enq := time.Now()                                                                       //facs:wallclock latency stamp; feeds the latency gauges only
	w := &wave{reqs: reqs, out: out[:len(reqs)], enq: enq, reply: make(chan []Response, 1)} //facs:alloc one wave header and reply channel per batch, not per request; the per-request path is alloc-free
	s.submitted.Add(int64(len(reqs)))
	if err := s.q.send(item{wave: w}); err != nil {
		s.submitted.Add(int64(-len(reqs)))
		return err
	}
	<-w.reply
	return nil
}

// Do runs fn inside the decision loop, after every previously enqueued
// request and op has completed, and blocks until fn returns. It is the
// barrier primitive: a serialized, race-free view of the controller and
// of any station state the service commits to.
func (s *Service) Do(fn func(ctrl cac.Controller)) error {
	o := &op{fn: fn, done: make(chan struct{})}
	if err := s.q.send(item{op: o}); err != nil {
		return err
	}
	<-o.done
	return nil
}

// Flush blocks until everything enqueued before it has been decided.
func (s *Service) Flush() error {
	return s.Do(func(cac.Controller) {})
}

// Tick delivers cac.Ticker.OnTick(now) to the controller, serialized
// after everything already enqueued. It is asynchronous; a controller
// without time-driven state makes it a cheap no-op.
func (s *Service) Tick(now float64) error {
	t, ok := s.cfg.Controller.(cac.Ticker)
	if !ok {
		return nil
	}
	return s.q.send(item{op: &op{fn: func(cac.Controller) {
		t.OnTick(now)
		s.ticks.Add(1)
	}}})
}

// Release retires a carried call: in Commit mode the bandwidth is
// released on the station (a failure counts into Stats.OpErrs), and
// observer controllers are notified either way. Asynchronous, ordered
// after everything already enqueued.
func (s *Service) Release(callID int, station *cell.BaseStation, now float64) error {
	return s.q.send(item{op: &op{fn: func(ctrl cac.Controller) {
		if s.cfg.Commit {
			if _, err := station.Release(callID); err != nil {
				s.opErrs.Add(1)
			}
		}
		if obs, ok := ctrl.(cac.Observer); ok {
			obs.OnRelease(callID, station, now)
		}
	}}})
}

// UpdateState delivers a fresh kinematic estimate for a carried call to
// mobility-tracking controllers (cac.StateUpdater). Asynchronous,
// ordered after everything already enqueued.
func (s *Service) UpdateState(callID int, est gps.Estimate, station *cell.BaseStation) error {
	u, ok := s.cfg.Controller.(cac.StateUpdater)
	if !ok {
		return nil
	}
	return s.q.send(item{op: &op{fn: func(cac.Controller) {
		u.OnStateUpdate(callID, est, station)
	}}})
}

// Close stops intake, waits for the queue to drain and the loop to
// exit, then returns. Submissions racing with Close either complete
// normally or return ErrClosed; Close is idempotent.
func (s *Service) Close() error {
	s.q.shutdown()
	return nil
}

// Stats returns a consistent-enough snapshot of the counters: each
// field is atomically read, and after Flush (or Close) the snapshot is
// exact.
func (s *Service) Stats() Stats {
	st := Stats{
		Submitted:  s.submitted.Load(),
		Decided:    s.decided.Load(),
		Accepted:   s.accepted.Load(),
		Rejected:   s.rejected.Load(),
		Committed:  s.committed.Load(),
		Batches:    s.batches.Load(),
		Waves:      s.waves.Load(),
		MaxBatch:   int(s.maxBatch.Load()),
		Ops:        s.ops.Load(),
		Ticks:      s.ticks.Load(),
		CommitErrs: s.commitErrs.Load(),
		OpErrs:     s.opErrs.Load(),
		AvgLatency: time.Duration(safeDiv(s.latSumNs.Load(), s.decided.Load())),
		MaxLatency: time.Duration(s.latMaxNs.Load()),
	}
	for i := range s.latHist {
		st.LatencyHist[i] = s.latHist[i].Load()
	}
	return st
}

func safeDiv(sum, n int64) int64 {
	if n == 0 {
		return 0
	}
	return sum / n
}

// handle runs one queue item inside the decision loop: the only place
// the controller is invoked and (in Commit mode) stations are mutated.
func (s *Service) handle(it item) *item {
	switch {
	case it.single != nil:
		return s.coalesce(it.single)
	case it.wave != nil:
		s.decideWave(it.wave)
	case it.op != nil:
		s.runOp(it.op)
	}
	return nil
}

// coalesce gathers a micro-batch from the first pending request and
// decides it, returning the item that interrupted the batch, if any.
func (s *Service) coalesce(first *pending) *item {
	batch, interrupt := s.q.gather(first)
	reqs := s.reqScratch[:0]
	for _, p := range batch {
		reqs = append(reqs, p.req)
	}
	s.reqScratch = reqs
	// A decision error is already carried by every response.
	t, _ := DecideChunk(s.cfg.Controller, s.cfg.Commit, reqs, s.decScratch, s.outScratch)
	s.noteBatch(len(batch))
	s.tally(t)
	for i, p := range batch {
		resp := s.outScratch[i]
		resp.Latency = s.noteLatency(p.enq, 1)
		p.reply <- resp
	}
	return interrupt
}

// decideWave decides one SubmitAll batch in deterministic MaxBatch
// chunks. A chunk's decision error fails the rest of the wave.
func (s *Service) decideWave(w *wave) {
	s.waves.Add(1)
	out := w.out
	var failed error
	for lo := 0; lo < len(w.reqs); lo += s.cfg.MaxBatch {
		hi := min(lo+s.cfg.MaxBatch, len(w.reqs))
		if failed == nil {
			t, err := DecideChunk(s.cfg.Controller, s.cfg.Commit, w.reqs[lo:hi], s.decScratch, out[lo:hi])
			s.noteBatch(hi - lo)
			s.tally(t)
			failed = err
			continue
		}
		for i := lo; i < hi; i++ {
			out[i] = Response{Decision: cac.Reject, Err: failed, Batch: hi - lo}
		}
		s.tally(Tally{Requests: hi - lo})
	}
	lat := s.noteLatency(w.enq, len(w.reqs))
	for i := range out {
		out[i].Latency = lat
	}
	w.reply <- out
}

// Tally counts the outcomes of one chunk decided by DecideChunk: the
// chunk's size and the Stats counters it splits into. Requests not
// accepted are rejected.
type Tally struct {
	Requests, Accepted, Committed, CommitErrs int
}

// DecideChunk is the decision step shared by every front end (a
// Service's micro-batches and waves, the sharded engine's chunks and
// handoffs): it decides reqs with ctrl through cac.DecideAllInto, using
// dec as scratch (at least len(reqs) slots), and finishes the requests
// into out[:len(reqs)] in request order. In Commit mode an accepted
// call is allocated on its station (cell.Admit) and then reported to a
// cac.Observer controller before the next request is finished, so a
// commit sees every earlier one; an accept that no longer fits carries
// the commit error uncommitted. A decision error rejects the whole
// chunk with that error and is returned. Latency is left to the caller.
//
//facs:hotpath
func DecideChunk(ctrl cac.Controller, commit bool, reqs []cac.Request, dec []cac.Decision, out []Response) (Tally, error) {
	t := Tally{Requests: len(reqs)}
	if err := cac.DecideAllInto(ctrl, reqs, dec); err != nil {
		for i := range reqs {
			out[i] = Response{Decision: cac.Reject, Err: err, Batch: len(reqs)}
		}
		return t, err
	}
	obs, _ := ctrl.(cac.Observer)
	for i := range reqs {
		d := dec[i]
		out[i] = Response{Decision: d, Batch: len(reqs)}
		if !d.Accepted() {
			continue
		}
		t.Accepted++
		if !commit {
			continue
		}
		call := reqs[i].Call
		call.AdmittedAt = reqs[i].Now
		call.Handoff = reqs[i].Handoff
		if err := reqs[i].Station.Admit(call); err != nil {
			// Accepted against the chunk-start snapshot, but earlier
			// accepts in the same chunk exhausted the bandwidth.
			t.CommitErrs++
			out[i].Err = err
			continue
		}
		out[i].Committed = true
		t.Committed++
		if obs != nil {
			obs.OnAdmit(reqs[i])
		}
	}
	return t, nil
}

// tally adds one chunk's outcomes to the counters.
func (s *Service) tally(t Tally) {
	s.decided.Add(int64(t.Requests))
	s.accepted.Add(int64(t.Accepted))
	s.rejected.Add(int64(t.Requests - t.Accepted))
	s.committed.Add(int64(t.Committed))
	s.commitErrs.Add(int64(t.CommitErrs))
}

func (s *Service) runOp(o *op) {
	o.fn(s.cfg.Controller)
	s.ops.Add(1)
	if o.done != nil {
		close(o.done)
	}
}

func (s *Service) noteBatch(n int) {
	s.batches.Add(1)
	if int64(n) > s.maxBatch.Load() {
		s.maxBatch.Store(int64(n))
	}
}

// noteLatency records one completion covering n requests (a wave's
// requests all complete together, so its latency weighs n times into
// the average).
func (s *Service) noteLatency(enq time.Time, n int) time.Duration {
	lat := time.Since(enq) //facs:wallclock latency metric only
	s.latSumNs.Add(int64(lat) * int64(n))
	if int64(lat) > s.latMaxNs.Load() {
		s.latMaxNs.Store(int64(lat))
	}
	s.latHist[LatencyBucket(lat)].Add(int64(n))
	return lat
}

// LatencyBucket maps a latency to its power-of-two Stats.LatencyHist
// bucket: the index of the highest set bit, i.e. bucket i covers
// [2^(i-1), 2^i) nanoseconds.
func LatencyBucket(lat time.Duration) int {
	if lat <= 0 {
		return 0
	}
	b := bits.Len64(uint64(lat))
	if b >= LatencyBuckets {
		b = LatencyBuckets - 1
	}
	return b
}

// Intake is a Service's single-request front half without its decision
// loop, for front ends that decide batches themselves (the sharded
// engine routes each batch across its shards). SubmitAsync enqueues;
// one goroutine coalesces the queue into micro-batches exactly as a
// Service does — at most MaxBatch requests, waiting at most MaxDelay
// after the first — and hands each batch to the owner's decide
// function.
type Intake struct {
	q      queue
	decide func(reqs []cac.Request, enq time.Time, out []Response)
	reqs   []cac.Request
	out    []Response
	// pending counts requests enqueued and not yet answered.
	pending atomic.Int64
}

// NewIntake starts an intake batching by cfg's MaxBatch, MaxDelay and
// Queue (defaults as for New; Controller and Commit are unused). decide
// receives each micro-batch, the enqueue time of its oldest request and
// a response buffer of len(reqs) slots to fill, Latency included; it
// runs on the intake goroutine, one batch at a time.
func NewIntake(cfg Config, decide func(reqs []cac.Request, enq time.Time, out []Response)) (*Intake, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	in := &Intake{
		q:      newQueue(cfg),
		decide: decide,
		reqs:   make([]cac.Request, 0, cfg.MaxBatch),
		out:    make([]Response, cfg.MaxBatch),
	}
	go in.q.run(in.handle)
	return in, nil
}

// SubmitAsync enqueues one request and returns a buffered channel that
// will carry exactly one Response; enqueue order is decision order.
// After Close the response carries ErrClosed.
func (in *Intake) SubmitAsync(req cac.Request) <-chan Response {
	p := &pending{req: req, enq: time.Now(), reply: make(chan Response, 1)} //facs:wallclock latency stamp; feeds the latency gauges only
	in.pending.Add(1)
	if err := in.q.send(item{single: p}); err != nil {
		in.pending.Add(-1)
		p.reply <- Response{Decision: cac.Reject, Err: err}
	}
	return p.reply
}

// Drain blocks until every request enqueued before it has been decided.
// With nothing pending it returns after one counter load; otherwise a
// barrier travels the queue, which also cuts the current micro-batch
// short instead of letting it wait out MaxDelay.
func (in *Intake) Drain() error {
	if in.pending.Load() == 0 {
		return nil
	}
	return in.barrier()
}

// barrier sends a barrier down the queue and waits until the intake
// goroutine reaches it.
//
//facs:coldpath runs only while singles are pending, never on a wave-only driver's path
func (in *Intake) barrier() error {
	o := &op{done: make(chan struct{})}
	if err := in.q.send(item{op: o}); err != nil {
		return err
	}
	<-o.done
	return nil
}

// Close stops intake and waits until every queued request has been
// decided. Idempotent.
func (in *Intake) Close() {
	in.q.shutdown()
}

// handle runs one queue item on the intake goroutine: a single starts a
// micro-batch, a barrier (from Drain) is released.
func (in *Intake) handle(it item) *item {
	if it.op != nil {
		close(it.op.done)
		return nil
	}
	batch, interrupt := in.q.gather(it.single)
	reqs := in.reqs[:0]
	for _, p := range batch {
		reqs = append(reqs, p.req)
	}
	in.reqs = reqs
	in.decide(reqs, batch[0].enq, in.out[:len(reqs)])
	for i, p := range batch {
		p.reply <- in.out[i]
	}
	in.pending.Add(-int64(len(batch)))
	return interrupt
}
