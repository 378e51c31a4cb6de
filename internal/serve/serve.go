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

// ErrClosed is returned by submissions and ops after Close.
var ErrClosed = errors.New("serve: service is closed")

// Config parameterises a Service.
type Config struct {
	// Controller renders the admission decisions. Controllers with a
	// native batch path (cac.BatchController) are amortised through
	// cac.DecideAllInto; any other controller is decided sequentially
	// with identical outcomes. Required.
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
	// Latency is the time from enqueue to decided (including commit),
	// shared by every request of one chunk: measured from the oldest
	// request of a micro-batch, and from the call of a wave.
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
	// Decided counts requests answered, counted as a chunk finishes.
	Decided int64
	// Accepted / Rejected split Decided by outcome; Committed counts
	// accepted requests actually allocated (Commit mode).
	Accepted, Rejected, Committed int64
	// Batches counts decided chunks; MaxBatch is the largest batch
	// realised; Waves counts SubmitAllInto calls.
	Batches, Waves int64
	MaxBatch       int
	// Ops counts applied control operations (ticks, releases, state
	// updates, Do calls; Flush is not one); Ticks the OnTick deliveries
	// among them.
	Ops, Ticks int64
	// CommitErrs counts accepted-but-uncommitted requests; OpErrs
	// counts failed releases.
	CommitErrs, OpErrs int64
	// AvgLatency / MaxLatency aggregate Response.Latency over every
	// decided request.
	AvgLatency, MaxLatency time.Duration
	// LatencyHist is the per-request latency histogram over
	// power-of-two buckets (see LatencyBuckets): the source for the
	// LatencyQuantile / P50Latency / P99Latency percentiles. A chunk's
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

// Core is the decision step every front end shares: it decides chunks
// of requests with one controller, commits accepted calls on their
// stations in Commit mode, notifies an observer controller, and counts
// the outcomes in Stats terms. Its methods are also the bodies of the
// control operations (Tick, Release, UpdateState, Do) and of the two
// handoff phases. A Service, every shard of the sharded engine, the
// metropolis driver's inline engine and each run of the single- and
// multi-cell simulators own one Core.
//
// Core is not safe for concurrent use: its owner serializes every call
// (a Service and a shard behind a mutex, the inline engine and the
// simulators by running on one goroutine).
type Core struct {
	ctrl   cac.Controller
	commit bool
	// observer, ticker and updater are ctrl's optional interfaces,
	// resolved once (nil when not implemented).
	observer cac.Observer
	ticker   cac.Ticker
	updater  cac.StateUpdater
	dec      []cac.Decision // decision scratch, MaxBatch slots
	// hoReq and hoOut are Handoff's one-request chunk.
	hoReq [1]cac.Request
	hoOut [1]Response
	// st holds the counters; st.AvgLatency is derived from latSum (the
	// summed per-request latency in nanoseconds) when read.
	st     Stats
	latSum int64
}

// NewCore returns a Core deciding with ctrl in chunks of at most
// maxBatch requests; commit selects Config.Commit's semantics.
func NewCore(ctrl cac.Controller, commit bool, maxBatch int) *Core {
	c := &Core{ctrl: ctrl, commit: commit, dec: make([]cac.Decision, maxBatch)}
	c.observer, _ = ctrl.(cac.Observer)
	c.ticker, _ = ctrl.(cac.Ticker)
	c.updater, _ = ctrl.(cac.StateUpdater)
	return c
}

// Controller returns the controller the Core decides with.
func (c *Core) Controller() cac.Controller { return c.ctrl }

// Decide decides one chunk of at most MaxBatch requests through
// cac.DecideAllInto — every request against the chunk-start station
// state — and finishes them into out[:len(reqs)] in request order. In
// Commit mode an accepted call is allocated on its station (cell.Admit)
// and then reported to an observer controller before the next request
// is finished, so a commit sees every earlier one; an accept that no
// longer fits carries the commit error uncommitted. A decision error
// rejects the whole chunk with that error and is returned. Every
// response carries the latency since enq, and the chunk counts as one
// batch.
//
//facs:hotpath
func (c *Core) Decide(reqs []cac.Request, out []Response, enq time.Time) error {
	out = out[:len(reqs)]
	c.st.Batches++
	c.st.MaxBatch = max(c.st.MaxBatch, len(reqs))
	if err := cac.DecideAllInto(c.ctrl, reqs, c.dec[:len(reqs)]); err != nil {
		c.reject(out, err, enq)
		return err
	}
	for i := range reqs {
		d := c.dec[i]
		out[i] = Response{Decision: d, Batch: len(reqs)}
		if !d.Accepted() {
			c.st.Rejected++
			continue
		}
		c.st.Accepted++
		if !c.commit {
			continue
		}
		call := reqs[i].Call
		call.AdmittedAt = reqs[i].Now
		call.Handoff = reqs[i].Handoff
		if err := reqs[i].Station.Admit(call); err != nil {
			// Accepted against the chunk-start snapshot, but earlier
			// accepts in the same chunk exhausted the bandwidth.
			c.st.CommitErrs++
			out[i].Err = err
			continue
		}
		out[i].Committed = true
		c.st.Committed++
		if c.observer != nil {
			c.observer.OnAdmit(reqs[i])
		}
	}
	c.finish(out, enq)
	return nil
}

// DecideWave decides a caller-defined batch (a wave) through Decide in
// deterministic MaxBatch chunks, in request order, and counts one wave.
// A chunk's decision error rejects the rest of the wave with that error
// — counted as decided, not as batches — and is returned.
//
//facs:hotpath
func (c *Core) DecideWave(reqs []cac.Request, out []Response, enq time.Time) error {
	c.st.Waves++
	var failed error
	for lo := 0; lo < len(reqs); lo += len(c.dec) {
		hi := min(lo+len(c.dec), len(reqs))
		if failed == nil {
			failed = c.Decide(reqs[lo:hi], out[lo:hi], enq)
			continue
		}
		c.reject(out[lo:hi], failed, enq)
	}
	return failed
}

// reject fails every request of a chunk with err.
func (c *Core) reject(out []Response, err error, enq time.Time) {
	for i := range out {
		out[i] = Response{Decision: cac.Reject, Err: err, Batch: len(out)}
	}
	c.st.Rejected += int64(len(out))
	c.finish(out, enq)
}

// finish stamps the latency since enq on a chunk's responses and counts
// its requests as decided.
func (c *Core) finish(out []Response, enq time.Time) {
	lat := time.Since(enq) //facs:wallclock latency metric only
	for i := range out {
		out[i].Latency = lat
	}
	n := int64(len(out))
	c.st.Decided += n
	c.st.MaxLatency = max(c.st.MaxLatency, lat)
	c.st.LatencyHist[LatencyBucket(lat)] += n
	c.latSum += int64(lat) * n
}

// Handoff is a handoff's target phase: it decides call's admission at
// station to with handoff priority, from the user's estimate est at
// time now, as a one-request chunk — so the decision sees every earlier
// commit — and returns the response.
//
//facs:hotpath
func (c *Core) Handoff(call cell.Call, to *cell.BaseStation, est gps.Estimate, now float64) Response {
	enq := time.Now() //facs:wallclock latency stamp; feeds the latency gauges only
	c.hoReq[0] = cac.Request{
		Call:    cell.Call{ID: call.ID, Class: call.Class, BU: call.BU},
		Station: to,
		Obs:     gps.Observe(est, to.Pos()),
		Est:     est,
		Handoff: true,
		Now:     now,
	}
	// A decision error is carried by the response.
	_ = c.Decide(c.hoReq[:], c.hoOut[:], enq)
	c.hoReq[0] = cac.Request{}
	return c.hoOut[0]
}

// Depart is a handoff's source phase: it releases the call from station
// and notifies an observer controller only when the release succeeds.
// A failed release is the handoff's protocol error, returned rather
// than counted into OpErrs. Either way it counts as one op.
//
//facs:hotpath
func (c *Core) Depart(callID int, station *cell.BaseStation, now float64) (cell.Call, error) {
	call, err := station.Release(callID)
	if err == nil && c.observer != nil {
		c.observer.OnRelease(callID, station, now)
	}
	c.st.Ops++
	return call, err
}

// Release retires a carried call: in Commit mode the bandwidth is
// released on the station (a failure counts into Stats.OpErrs), and an
// observer controller is notified either way. It counts as one op.
//
//facs:hotpath
func (c *Core) Release(callID int, station *cell.BaseStation, now float64) {
	if c.commit {
		if _, err := station.Release(callID); err != nil {
			c.st.OpErrs++
		}
	}
	if c.observer != nil {
		c.observer.OnRelease(callID, station, now)
	}
	c.st.Ops++
}

// Tick delivers cac.Ticker.OnTick(now), counted as an op and a tick; a
// controller without time-driven state makes it a no-op.
func (c *Core) Tick(now float64) {
	if c.ticker == nil {
		return
	}
	c.ticker.OnTick(now)
	c.st.Ops++
	c.st.Ticks++
}

// UpdateState delivers a fresh kinematic estimate for a carried call to
// a mobility-tracking controller (cac.StateUpdater), counted as an op;
// any other controller makes it a no-op.
func (c *Core) UpdateState(callID int, est gps.Estimate, station *cell.BaseStation) {
	if c.updater == nil {
		return
	}
	c.updater.OnStateUpdate(callID, est, station)
	c.st.Ops++
}

// Do runs fn on the controller, counted as an op.
func (c *Core) Do(fn func(ctrl cac.Controller)) {
	fn(c.ctrl)
	c.st.Ops++
}

// Stats snapshots the counters.
func (c *Core) Stats() Stats {
	st := c.st
	if st.Decided > 0 {
		st.AvgLatency = time.Duration(c.latSum / st.Decided)
	}
	return st
}

// Service is a streaming admission front end over an admission
// controller: one Core behind a mutex, fronted by an Intake. Concurrent
// SubmitAsync singles are coalesced by the intake goroutine into
// micro-batches (bounded by MaxBatch and MaxDelay), each decided as one
// chunk with per-request latency. Waves (SubmitAllInto) and control
// operations — ticks and releases — run on the calling goroutine after
// draining the intake, so each is ordered after every single already
// enqueued and returns once applied.
// Decisions, commits and operations all hold the same mutex, so
// stateful controllers (e.g. the SCC demand ledger) keep their
// invariants without any locking of their own.
type Service struct {
	in   *Intake
	mu   sync.Mutex // guards core
	core *Core
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
	return cfg, nil
}

// New validates the configuration, applies defaults and starts the
// intake. The returned service is live until Close.
func New(cfg Config) (*Service, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("serve: config needs a controller")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Service{core: NewCore(cfg.Controller, cfg.Commit, cfg.MaxBatch)}
	if s.in, err = NewIntake(cfg, s.decideBatch); err != nil {
		return nil, err
	}
	return s, nil
}

// decideBatch decides one intake micro-batch as one chunk.
func (s *Service) decideBatch(reqs []cac.Request, enq time.Time, out []Response) {
	s.mu.Lock()
	// A decision error is already carried by every response.
	_ = s.core.Decide(reqs, out, enq)
	s.mu.Unlock()
}

// SubmitAsync enqueues one request and returns immediately with a
// buffered channel that will carry exactly one Response. It lets a
// single producer keep the intake queue full (and the micro-batcher
// well fed) without one blocked round trip per request; the enqueue
// order — and therefore the decision order — is the call order. After
// Close the response carries ErrClosed.
func (s *Service) SubmitAsync(req cac.Request) <-chan Response {
	return s.in.SubmitAsync(req)
}

// SubmitAllInto decides a caller-defined batch (a "wave") into a
// caller-owned response buffer: the responses land in out[:len(reqs)]
// in request order, so closed-loop drivers reuse one buffer across
// millions of waves; out must hold at least len(reqs) entries. A wave is
// decided as a unit: it never coalesces with other traffic, and it is
// split only at MaxBatch boundaries — deterministically, never by timing
// — so closed-loop drivers that need reproducible outcomes stream waves.
// In Commit mode, accepted calls of one chunk are allocated before the
// next chunk is decided. A chunk's decision error rejects the rest of
// the wave; the responses carry it.
//
//facs:hotpath
func (s *Service) SubmitAllInto(reqs []cac.Request, out []Response) error {
	if len(reqs) == 0 {
		return nil
	}
	if len(out) < len(reqs) {
		return errShortBuffer(len(reqs), len(out))
	}
	if err := s.in.Drain(); err != nil {
		return err
	}
	enq := time.Now() //facs:wallclock latency stamp; feeds the latency gauges only
	s.mu.Lock()
	// A decision error is already carried by the responses.
	_ = s.core.DecideWave(reqs, out, enq)
	s.mu.Unlock()
	return nil
}

//facs:coldpath error constructor; called only on caller misuse
func errShortBuffer(reqs, slots int) error {
	return fmt.Errorf("serve: response buffer too short: %d requests, %d slots", reqs, slots)
}

// Flush blocks until everything submitted before it has been decided.
// It is not an op: Stats counts nothing for it.
func (s *Service) Flush() error {
	return s.in.Drain()
}

// Tick delivers cac.Ticker.OnTick(now) to the controller, ordered after
// everything already submitted; a controller without time-driven state
// makes it a no-op.
//
//facs:hotpath
func (s *Service) Tick(now float64) error {
	if err := s.in.Drain(); err != nil {
		return err
	}
	s.mu.Lock()
	s.core.Tick(now)
	s.mu.Unlock()
	return nil
}

// Release retires a carried call, ordered after everything already
// submitted: in Commit mode the bandwidth is released on the station (a
// failure counts into Stats.OpErrs), and observer controllers are
// notified either way.
//
//facs:hotpath
func (s *Service) Release(callID int, station *cell.BaseStation, now float64) error {
	if err := s.in.Drain(); err != nil {
		return err
	}
	s.mu.Lock()
	s.core.Release(callID, station, now)
	s.mu.Unlock()
	return nil
}

// Close stops intake, decides every single still queued and returns;
// afterwards every submission and operation reports ErrClosed.
// Submissions racing with Close either complete normally or return
// ErrClosed; Close is idempotent.
func (s *Service) Close() error {
	s.in.Close()
	return nil
}

// Stats returns a snapshot of the counters; after Flush (or Close) it
// is exact.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Stats()
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

// pending is one in-flight single request.
type pending struct {
	req   cac.Request
	enq   time.Time
	reply chan Response
}

// item is one intake-queue entry: a single request, or a Drain barrier
// that is closed when the intake goroutine reaches it.
type item struct {
	single  *pending
	barrier chan struct{}
}

// Intake is the single-request front half of a front end: SubmitAsync
// enqueues on a bounded channel, and one goroutine coalesces the queue
// into micro-batches — at most MaxBatch requests, waiting at most
// MaxDelay after the first — and hands each batch to the owner's decide
// function. A Service and the sharded engine each front their singles
// with one Intake; every other operation of theirs runs on its caller
// after Drain.
type Intake struct {
	in       chan item
	done     chan struct{}
	mu       sync.RWMutex // held across sends so Close cannot close in under one
	closed   atomic.Bool  // written under mu
	maxBatch int
	maxDelay time.Duration
	decide   func(reqs []cac.Request, enq time.Time, out []Response)
	// Scratch owned by the intake goroutine.
	batch []*pending
	reqs  []cac.Request
	out   []Response
	// pending counts requests enqueued and not yet answered.
	pending atomic.Int64
}

// NewIntake starts an intake batching by cfg's MaxBatch and MaxDelay
// (defaults as for New; Controller and Commit are unused). It queues up
// to 4 x MaxBatch singles; submitters block once the queue is full,
// which is the intake's backpressure. decide receives each micro-batch,
// the enqueue time of its oldest request and a response buffer of
// len(reqs) slots to fill, Latency included; it runs on the intake
// goroutine, one batch at a time.
func NewIntake(cfg Config, decide func(reqs []cac.Request, enq time.Time, out []Response)) (*Intake, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	in := &Intake{
		in:       make(chan item, 4*cfg.MaxBatch),
		done:     make(chan struct{}),
		maxBatch: cfg.MaxBatch,
		maxDelay: cfg.MaxDelay,
		decide:   decide,
		batch:    make([]*pending, 0, cfg.MaxBatch),
		reqs:     make([]cac.Request, 0, cfg.MaxBatch),
		out:      make([]Response, cfg.MaxBatch),
	}
	go in.run()
	return in, nil
}

// send enqueues an item unless the intake is closed. The read lock is
// held across the channel send so Close cannot close the channel under
// an in-flight submitter.
func (in *Intake) send(it item) error {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.closed.Load() {
		return ErrClosed
	}
	in.in <- it
	return nil
}

// SubmitAsync enqueues one request and returns a buffered channel that
// will carry exactly one Response; enqueue order is decision order.
// After Close the response carries ErrClosed.
func (in *Intake) SubmitAsync(req cac.Request) <-chan Response {
	p := &pending{req: req, enq: time.Now(), reply: make(chan Response, 1)} //facs:wallclock latency stamp; feeds the latency gauges only
	in.pending.Add(1)
	if err := in.send(item{single: p}); err != nil {
		in.pending.Add(-1)
		p.reply <- Response{Decision: cac.Reject, Err: err}
	}
	return p.reply
}

// Drain blocks until every request enqueued before it has been decided,
// and reports ErrClosed after Close. With nothing pending it returns
// after two atomic loads; otherwise a barrier travels the queue, which
// also cuts the current micro-batch short instead of letting it wait
// out MaxDelay.
func (in *Intake) Drain() error {
	if in.closed.Load() {
		return ErrClosed
	}
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
	b := make(chan struct{})
	if err := in.send(item{barrier: b}); err != nil {
		return err
	}
	<-b
	return nil
}

// Close stops intake and waits until every queued request has been
// decided; afterwards SubmitAsync and Drain report ErrClosed.
// Idempotent.
func (in *Intake) Close() {
	in.mu.Lock()
	if !in.closed.Load() {
		in.closed.Store(true)
		close(in.in)
	}
	in.mu.Unlock()
	<-in.done
}

// run is the intake goroutine: a single starts a micro-batch, a barrier
// is released. A barrier or single that interrupted a micro-batch is
// handled next, strictly after the requests that preceded it.
func (in *Intake) run() {
	defer close(in.done)
	for it := range in.in {
		for next := in.handle(it); next != nil; {
			next = in.handle(*next)
		}
	}
}

// handle runs one queue item, returning the item that interrupted its
// micro-batch, if any.
func (in *Intake) handle(it item) *item {
	if it.barrier != nil {
		close(it.barrier)
		return nil
	}
	batch, interrupt := in.gather(it.single)
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

// gather grows a micro-batch from the first pending request until
// maxBatch, maxDelay after enqueue of the first request, or a barrier
// interrupts. It returns the batch (valid until the next gather) and
// the interrupting item, if any.
func (in *Intake) gather(first *pending) ([]*pending, *item) {
	batch := append(in.batch[:0], first)
	var interrupt *item
	if in.maxDelay > 0 && in.maxBatch > 1 {
		wait := in.maxDelay - time.Since(first.enq) //facs:wallclock shapes batch boundaries only; the outcome contracts pin decision equality across batchings
		if wait > 0 {
			timer := time.NewTimer(wait)
		fill:
			for len(batch) < in.maxBatch {
				select {
				case it, ok := <-in.in:
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
		for len(batch) < in.maxBatch {
			select {
			case it, ok := <-in.in:
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
	in.batch = batch
	return batch, interrupt
}
