package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/experiments"
	"facs/internal/facs"
	"facs/internal/scc"
	"facs/internal/serve"
	"facs/internal/shard"
)

// The rung ladder. One captured stream is replayed through each public
// entry point in turn, each time against a freshly built identical
// network:
//
//  1. the compiled FLC1 and FLC2 surfaces;
//  2. the controllers' DecideBatchInto;
//  3. cac.DecideAllInto;
//  4. the same plus BaseStation.Admit/Release (the inline engine);
//  5. serve.Service.SubmitAllInto with Commit;
//  6. shard.Engine SubmitWaveTo/HandoffCall/Release/Tick at the
//     workload's shard count;
//  7. RunMetropolis itself.
//
// Every rung checks its outcomes against the capture. For cell-local
// controllers they agree on every rung; the SCC ledger agrees up to the
// serve rung, and its sharded rung legitimately diverges (the metropolis
// waves are not tick-aligned), so there the mismatches are only counted.
// A layer's cost is the gap between two adjacent rungs.

const (
	// sccShadowDecisions caps how many decisions the SCC ledger shadows
	// on a workload decided by another controller, after which it takes
	// one closing tick and stops: its cost grows faster than linearly
	// with the cell count and the load, and a whole city day would not
	// fit a run.
	sccShadowDecisions = 2000
	// surfacePasses is how many times the surface rung repeats; one pass
	// is too short to time alone.
	surfacePasses = 5
	// maxExactSamples caps the guard-band fallbacks re-run on the exact
	// engines.
	maxExactSamples = 5000
)

// rungBackend is one rung's way of executing the captured operations.
type rungBackend interface {
	decide(lo int, reqs []cac.Request, acc, com []bool) error
	releases(rs []release, stations []*cell.BaseStation) error
	handoff(lo int, req cac.Request, from *cell.BaseStation, acc, com *bool) error
	tick(now float64) error
	flush() error
}

type replayResult struct {
	wall       time.Duration
	hash       uint64
	mismatches int
	ops        int64
}

// replay drives the stream through b against stations and compares every
// outcome with the capture.
func (s *stream) replay(stations []*cell.BaseStation, b rungBackend) (replayResult, error) {
	s.rebind(stations)
	acc, com := make([]bool, maxBatch), make([]bool, maxBatch)
	h := newOutcomeHash()
	var res replayResult
	runtime.GC()
	start := time.Now()
	for _, o := range s.ops {
		switch o.kind {
		case opRelease:
			if err := b.releases(s.releases[o.lo:o.hi], stations); err != nil {
				return res, err
			}
			res.ops += int64(o.hi - o.lo)
		case opTick:
			if err := b.tick(o.now); err != nil {
				return res, err
			}
			res.ops++
		case opHandoff:
			i := int(o.lo)
			var a, c bool
			if err := b.handoff(i, s.reqs[i], stations[o.from], &a, &c); err != nil {
				return res, err
			}
			h.add('H', s.reqs[i].Call.ID, a, c)
			if a != s.accepted[i] || c != s.committed[i] {
				res.mismatches++
			}
			res.ops++
		case opDecide:
			lo, n := int(o.lo), int(o.hi-o.lo)
			if err := b.decide(lo, s.reqs[lo:lo+n], acc[:n], com[:n]); err != nil {
				return res, err
			}
			for j := 0; j < n; j++ {
				h.add('A', s.reqs[lo+j].Call.ID, acc[j], com[j])
				if acc[j] != s.accepted[lo+j] || com[j] != s.committed[lo+j] {
					res.mismatches++
				}
			}
			res.ops += int64(n)
		}
	}
	if err := b.flush(); err != nil {
		return res, err
	}
	res.wall = time.Since(start)
	res.hash = uint64(h)
	return res, nil
}

// commit allocates an accepted request on its station the way the
// engines do, stamping the admission time and the handoff flag.
func commit(req cac.Request) error {
	call := req.Call
	call.AdmittedAt = req.Now
	call.Handoff = req.Handoff
	return req.Station.Admit(call)
}

// timerBias is what a start/stop pair of clock reads adds to a timed
// segment; segment sums subtract it once per segment.
func timerBias() int64 {
	const n = 200000
	var sum time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		sum += time.Since(start)
	}
	return int64(sum) / n
}

// probe is one controller timed on the controller rung.
type probe struct {
	kind     controllerKind
	ctrl     cac.BatchIntoController
	obs      cac.Observer
	tick     cac.Ticker
	exporter cac.DemandExchanger
	compiled *facs.CompiledController
	ledger   *scc.Ledger
	// limit is the decision count after which a shadow takes a closing
	// tick and stops (0: never).
	limit  int64
	closed bool
	dec    []cac.Decision
	// verdicts records a FACS probe's accept verdict per stream request,
	// for the surface rung's check.
	verdicts []bool

	decided, observed, ticks, exports, rows int64
	decideNs, observeNs, tickNs             int64
	fast, exact                             int64
}

func newProbe(kind controllerKind, ctrl cac.Controller, limit int64, decisions int) (*probe, error) {
	bi, ok := ctrl.(cac.BatchIntoController)
	if !ok {
		return nil, fmt.Errorf("%s has no batch decision path", ctrl.Name())
	}
	p := &probe{kind: kind, ctrl: bi, limit: limit, dec: make([]cac.Decision, maxBatch)}
	p.obs, _ = ctrl.(cac.Observer)
	p.tick, _ = ctrl.(cac.Ticker)
	p.exporter, _ = ctrl.(cac.DemandExchanger)
	p.compiled, _ = ctrl.(*facs.CompiledController)
	p.ledger, _ = ctrl.(*scc.Ledger)
	if p.compiled != nil {
		p.verdicts = make([]bool, decisions)
	}
	return p, nil
}

func (p *probe) active() bool { return !p.closed }

// controllerRung times each probe's DecideBatchInto. With follow unset
// there is one probe, the workload's controller, whose verdicts drive the
// station commits and are checked. With follow set the probes are
// shadows: they decide the same requests against the same station states
// while the commits follow the capture, so a controller the workload does
// not run is still timed on its request stream.
type controllerRung struct {
	probes []*probe
	follow []bool
	one    [1]cac.Request
	bias   int64
}

func (r *controllerRung) decide(lo int, reqs []cac.Request, acc, com []bool) error {
	for k, p := range r.probes {
		if !p.active() {
			continue
		}
		var fast0, exact0 int64
		if p.compiled != nil {
			fast0, exact0 = p.compiled.Stats()
		}
		start := time.Now()
		err := p.ctrl.DecideBatchInto(reqs, p.dec[:len(reqs)])
		p.decideNs += int64(time.Since(start)) - r.bias
		if err != nil {
			return fmt.Errorf("controller rung: %s: %w", p.ctrl.Name(), err)
		}
		p.decided += int64(len(reqs))
		if p.compiled != nil {
			fast1, exact1 := p.compiled.Stats()
			p.fast += fast1 - fast0
			p.exact += exact1 - exact0
			for j := range reqs {
				p.verdicts[lo+j] = p.dec[j].Accepted()
			}
		}
		if k == 0 && r.follow == nil {
			for j := range reqs {
				acc[j] = p.dec[j].Accepted()
			}
		}
	}
	if r.follow != nil {
		copy(acc, r.follow[lo:lo+len(reqs)])
	}
	for j := range reqs {
		com[j] = acc[j] && commit(reqs[j]) == nil
		if !com[j] {
			continue
		}
		for _, p := range r.probes {
			if p.obs != nil && p.active() {
				start := time.Now()
				p.obs.OnAdmit(reqs[j])
				p.observeNs += int64(time.Since(start)) - r.bias
				p.observed++
			}
		}
	}
	for _, p := range r.probes {
		if p.active() && p.limit > 0 && p.decided >= p.limit {
			r.tickProbe(p, reqs[0].Now)
			p.closed = true
		}
	}
	return nil
}

func (r *controllerRung) notifyRelease(id int, bs *cell.BaseStation, now float64) {
	for _, p := range r.probes {
		if p.obs != nil && p.active() {
			start := time.Now()
			p.obs.OnRelease(id, bs, now)
			p.observeNs += int64(time.Since(start)) - r.bias
			p.observed++
		}
	}
}

func (r *controllerRung) releases(rs []release, stations []*cell.BaseStation) error {
	for _, x := range rs {
		bs := stations[x.station]
		if _, err := bs.Release(int(x.id)); err != nil {
			return fmt.Errorf("controller rung: %w", err)
		}
		r.notifyRelease(int(x.id), bs, x.now)
	}
	return nil
}

func (r *controllerRung) handoff(lo int, req cac.Request, from *cell.BaseStation, acc, com *bool) error {
	if _, err := from.Release(req.Call.ID); err != nil {
		return fmt.Errorf("controller rung: %w", err)
	}
	r.notifyRelease(req.Call.ID, from, req.Now)
	r.one[0] = req
	var a, c [1]bool
	if err := r.decide(lo, r.one[:], a[:], c[:]); err != nil {
		return err
	}
	*acc, *com = a[0], c[0]
	return nil
}

func (r *controllerRung) tick(now float64) error {
	for _, p := range r.probes {
		if p.active() {
			r.tickProbe(p, now)
		}
	}
	return nil
}

// tickProbe delivers a tick to p, then takes its demand export as the
// sharded engine's tick barrier does.
func (r *controllerRung) tickProbe(p *probe, now float64) {
	if p.tick != nil {
		start := time.Now()
		p.tick.OnTick(now)
		p.tickNs += int64(time.Since(start)) - r.bias
		p.ticks++
	}
	if p.exporter != nil {
		d := p.exporter.ExportDemand()
		p.exports++
		p.rows += int64(len(d.Rows))
	}
}

func (r *controllerRung) flush() error { return nil }

// inlineRung is the inline engine's semantics with the workload's
// controller: cac.DecideAllInto per chunk, Admit then observer
// notification per accept, Release then notification per retirement.
// Its decide segments are the dispatch rung, the whole replay the cell
// rung.
type inlineRung struct {
	ctrl   cac.Controller
	obs    cac.Observer
	ticker cac.Ticker
	dec    []cac.Decision
	one    [1]cac.Request
	bias   int64

	decideNs, admitNs, releaseNs int64
	admits, releaseCalls         int64
}

func newInlineRung(ctrl cac.Controller, bias int64) *inlineRung {
	r := &inlineRung{ctrl: ctrl, dec: make([]cac.Decision, maxBatch), bias: bias}
	r.obs, _ = ctrl.(cac.Observer)
	r.ticker, _ = ctrl.(cac.Ticker)
	return r
}

func (r *inlineRung) decide(_ int, reqs []cac.Request, acc, com []bool) error {
	start := time.Now()
	err := cac.DecideAllInto(r.ctrl, reqs, r.dec[:len(reqs)])
	r.decideNs += int64(time.Since(start)) - r.bias
	if err != nil {
		return fmt.Errorf("inline rung: %w", err)
	}
	start = time.Now()
	for j := range reqs {
		acc[j] = r.dec[j].Accepted()
		com[j] = false
		if acc[j] {
			com[j] = commit(reqs[j]) == nil
			r.admits++
		}
	}
	r.admitNs += int64(time.Since(start)) - r.bias
	if r.obs != nil {
		for j := range reqs {
			if com[j] {
				r.obs.OnAdmit(reqs[j])
			}
		}
	}
	return nil
}

func (r *inlineRung) releases(rs []release, stations []*cell.BaseStation) error {
	start := time.Now()
	for _, x := range rs {
		if _, err := stations[x.station].Release(int(x.id)); err != nil {
			return fmt.Errorf("inline rung: %w", err)
		}
	}
	r.releaseNs += int64(time.Since(start)) - r.bias
	r.releaseCalls += int64(len(rs))
	if r.obs != nil {
		for _, x := range rs {
			r.obs.OnRelease(int(x.id), stations[x.station], x.now)
		}
	}
	return nil
}

func (r *inlineRung) handoff(lo int, req cac.Request, from *cell.BaseStation, acc, com *bool) error {
	start := time.Now()
	_, err := from.Release(req.Call.ID)
	r.releaseNs += int64(time.Since(start)) - r.bias
	r.releaseCalls++
	if err != nil {
		return fmt.Errorf("inline rung: %w", err)
	}
	if r.obs != nil {
		r.obs.OnRelease(req.Call.ID, from, req.Now)
	}
	r.one[0] = req
	var a, c [1]bool
	if err := r.decide(lo, r.one[:], a[:], c[:]); err != nil {
		return err
	}
	*acc, *com = a[0], c[0]
	return nil
}

func (r *inlineRung) tick(now float64) error {
	if r.ticker != nil {
		r.ticker.OnTick(now)
	}
	return nil
}

func (r *inlineRung) flush() error { return nil }

// serveRung replays through one serve.Service in Commit mode.
type serveRung struct {
	svc  *serve.Service
	resp []serve.Response
	one  [1]cac.Request
}

func (r *serveRung) decide(_ int, reqs []cac.Request, acc, com []bool) error {
	if err := r.svc.SubmitAllInto(reqs, r.resp[:len(reqs)]); err != nil {
		return fmt.Errorf("serve rung: %w", err)
	}
	for j := range reqs {
		resp := r.resp[j]
		if resp.Err != nil && !resp.Decision.Accepted() {
			return fmt.Errorf("serve rung: %w", resp.Err)
		}
		acc[j], com[j] = resp.Decision.Accepted(), resp.Committed
	}
	return nil
}

func (r *serveRung) releases(rs []release, stations []*cell.BaseStation) error {
	for _, x := range rs {
		if err := r.svc.Release(int(x.id), stations[x.station], x.now); err != nil {
			return fmt.Errorf("serve rung: %w", err)
		}
	}
	return nil
}

func (r *serveRung) handoff(lo int, req cac.Request, from *cell.BaseStation, acc, com *bool) error {
	if err := r.svc.Release(req.Call.ID, from, req.Now); err != nil {
		return fmt.Errorf("serve rung: %w", err)
	}
	r.one[0] = req
	var a, c [1]bool
	if err := r.decide(lo, r.one[:], a[:], c[:]); err != nil {
		return err
	}
	*acc, *com = a[0], c[0]
	return nil
}

func (r *serveRung) tick(now float64) error { return r.svc.Tick(now) }

func (r *serveRung) flush() error { return r.svc.Flush() }

// shardRung replays through a shard.Engine in Commit mode. When the
// engine may diverge from the capture (sharded SCC), live tracks the
// calls it actually carries, and the retirements and handoffs of calls it
// never admitted are skipped. Calls only the engine admitted are never
// retired, as the capture holds no retirement for them.
type shardRung struct {
	eng  *shard.Engine
	resp []serve.Response
	live map[int]bool
	bias int64

	handoffNs, tickNs               int64
	handoffs, ticks, cross, skipped int64
}

func (r *shardRung) decide(_ int, reqs []cac.Request, acc, com []bool) error {
	if err := r.eng.SubmitWaveTo(reqs, r.resp[:len(reqs)]); err != nil {
		return fmt.Errorf("shard rung: %w", err)
	}
	for j := range reqs {
		resp := r.resp[j]
		if resp.Err != nil && !resp.Decision.Accepted() {
			return fmt.Errorf("shard rung: %w", resp.Err)
		}
		acc[j], com[j] = resp.Decision.Accepted(), resp.Committed
		if r.live != nil && com[j] {
			r.live[reqs[j].Call.ID] = true
		}
	}
	return nil
}

// carried reports whether the engine carries call id, forgetting it: the
// caller is about to retire or move it.
func (r *shardRung) carried(id int) bool {
	if r.live == nil {
		return true
	}
	ok := r.live[id]
	delete(r.live, id)
	return ok
}

func (r *shardRung) releases(rs []release, stations []*cell.BaseStation) error {
	for _, x := range rs {
		if !r.carried(int(x.id)) {
			continue
		}
		if err := r.eng.Release(int(x.id), stations[x.station], x.now); err != nil {
			return fmt.Errorf("shard rung: %w", err)
		}
	}
	return nil
}

func (r *shardRung) handoff(_ int, req cac.Request, from *cell.BaseStation, acc, com *bool) error {
	if !r.carried(req.Call.ID) {
		r.skipped++
		*acc, *com = false, false
		return nil
	}
	start := time.Now()
	res := r.eng.HandoffCall(shard.Handoff{CallID: req.Call.ID, From: from, To: req.Station, Est: req.Est, Now: req.Now})
	r.handoffNs += int64(time.Since(start)) - r.bias
	r.handoffs++
	if res.Err != nil {
		return fmt.Errorf("shard rung: %w", res.Err)
	}
	if res.CrossShard {
		r.cross++
	}
	*acc, *com = res.Response.Decision.Accepted(), res.Response.Committed
	if r.live != nil && *com {
		r.live[req.Call.ID] = true
	}
	return nil
}

func (r *shardRung) tick(now float64) error {
	start := time.Now()
	err := r.eng.Tick(now)
	r.tickNs += int64(time.Since(start)) - r.bias
	r.ticks++
	if err != nil {
		return fmt.Errorf("shard rung: %w", err)
	}
	return nil
}

func (r *shardRung) flush() error { return r.eng.Flush() }

// ladder is what the rung ladder measured. Rung times are totals in
// nanoseconds over the whole stream.
type ladder struct {
	decisions int
	ops       int64

	surfaceNs, controllerNs, dispatchNs, cellNs, serveNs, shardNs, metroNs float64

	flc1Ns, flc2Ns          float64
	lookups, surfaceChecked int
	facs, scc               *probe
	exactNs                 float64
	exactSamples            int
	inline                  *inlineRung
	serveStats              serve.Stats
	shard                   *shardRung
	shardMismatches         int
}

// runLadder replays s, captured from w at seed, up every rung.
func runLadder(w workload, s *stream, compiled *facs.CompiledController, newCtrl ctrlFactory, seed int64, log io.Writer) (*ladder, error) {
	lad := &ladder{decisions: s.decisions()}
	phase := time.Now()
	done := func(what string) {
		fmt.Fprintf(log, "ladder: %s took %.2f s\n", what, time.Since(phase).Seconds())
		phase = time.Now()
	}
	bias := timerBias()
	want := s.hash()
	fresh := func() (*cell.Network, cac.Controller, error) {
		net, err := w.network()
		if err != nil {
			return nil, nil, err
		}
		ctrl, err := newCtrl(shard.SingleView(net))
		return net, ctrl, err
	}
	strict := func(rung string, r replayResult) error {
		if r.mismatches != 0 || r.hash != want {
			return fmt.Errorf("%s rung: %d outcomes differ from the capture (hash %#x, want %#x)", rung, r.mismatches, r.hash, want)
		}
		return nil
	}

	// Rung 2: the workload's controller alone.
	net, ctrl, err := fresh()
	if err != nil {
		return nil, err
	}
	primary, err := newProbe(w.controller, ctrl, 0, s.decisions())
	if err != nil {
		return nil, err
	}
	r2, err := s.replay(net.Stations(), &controllerRung{probes: []*probe{primary}, bias: bias})
	if err != nil {
		return nil, err
	}
	if err := strict("controller", r2); err != nil {
		return nil, err
	}
	lad.ops += r2.ops
	lad.controllerNs = float64(primary.decideNs)
	done("controller rung")

	// Shadows, in a pass of their own so they do not disturb the
	// controller rung's caches: the controller families the workload
	// does not run, timed on its request stream.
	net, err = w.network()
	if err != nil {
		return nil, err
	}
	shadows := &controllerRung{follow: s.accepted, bias: bias}
	for _, kind := range []controllerKind{facsCtrl, sccCtrl} {
		if kind == w.controller {
			continue
		}
		var c cac.Controller = compiled
		limit := int64(0)
		if kind == sccCtrl {
			if c, err = newLedger(net); err != nil {
				return nil, err
			}
			limit = sccShadowDecisions
		}
		p, err := newProbe(kind, c, limit, s.decisions())
		if err != nil {
			return nil, err
		}
		shadows.probes = append(shadows.probes, p)
	}
	rs, err := s.replay(net.Stations(), shadows)
	if err != nil {
		return nil, err
	}
	if err := strict("shadow", rs); err != nil {
		return nil, err
	}
	lad.ops += rs.ops
	for _, p := range append(shadows.probes, primary) {
		switch p.kind {
		case facsCtrl:
			lad.facs = p
		case sccCtrl:
			lad.scc = p
		}
	}
	done("shadow controllers")

	// Rung 1: the surfaces, checked against the FACS verdicts.
	if err := lad.surfaceRung(s, compiled, lad.facs.verdicts); err != nil {
		return nil, err
	}
	done("surface rung")
	if lad.exactNs, lad.exactSamples, err = exactFallbackNs(s, compiled); err != nil {
		return nil, err
	}
	done("exact fallbacks")

	// Rungs 3 and 4: one inline replay. Its decide segments are the
	// dispatch rung; the whole replay adds the station commits.
	net, ctrl, err = fresh()
	if err != nil {
		return nil, err
	}
	lad.inline = newInlineRung(ctrl, bias)
	r4, err := s.replay(net.Stations(), lad.inline)
	if err != nil {
		return nil, err
	}
	if err := strict("inline", r4); err != nil {
		return nil, err
	}
	lad.ops += r4.ops
	lad.dispatchNs = float64(lad.inline.decideNs)
	lad.cellNs = float64(r4.wall)
	done("inline rung")

	// Rung 5: one serve.Service.
	net, ctrl, err = fresh()
	if err != nil {
		return nil, err
	}
	svc, err := serve.New(serve.Config{Controller: ctrl, MaxBatch: maxBatch, Commit: true})
	if err != nil {
		return nil, err
	}
	r5, err := s.replay(net.Stations(), &serveRung{svc: svc, resp: make([]serve.Response, maxBatch)})
	lad.serveStats = svc.Stats()
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := strict("serve", r5); err != nil {
		return nil, err
	}
	if lad.serveStats.OpErrs != 0 {
		return nil, fmt.Errorf("serve rung: %d releases failed", lad.serveStats.OpErrs)
	}
	lad.ops += r5.ops
	lad.serveNs = float64(r5.wall)
	done("serve rung")

	// Rung 6: the sharded engine at the workload's shard count.
	net, err = w.network()
	if err != nil {
		return nil, err
	}
	eng, err := shard.New(shard.Config{Network: net, Shards: w.shards, NewController: newCtrl, MaxBatch: maxBatch, Commit: true})
	if err != nil {
		return nil, err
	}
	lad.shard = &shardRung{eng: eng, resp: make([]serve.Response, maxBatch), bias: bias}
	if !w.cellLocal() {
		lad.shard.live = make(map[int]bool)
	}
	r6, err := s.replay(net.Stations(), lad.shard)
	st := eng.Stats()
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if w.cellLocal() {
		if err := strict("shard", r6); err != nil {
			return nil, err
		}
	}
	if st.Total.OpErrs != 0 {
		return nil, fmt.Errorf("shard rung: %d releases failed", st.Total.OpErrs)
	}
	lad.ops += r6.ops
	lad.shardMismatches = r6.mismatches
	lad.shardNs = float64(r6.wall)
	done("shard rung")

	// Rung 7: RunMetropolis on the engine the stream was captured from.
	runtime.GC()
	res, err := experiments.RunMetropolis(w.batchConfig(seed, 1, newCtrl))
	if err != nil {
		return nil, fmt.Errorf("metropolis rung: %w", err)
	}
	if res.DecisionHash != want {
		return nil, fmt.Errorf("metropolis rung: hash %#x, want %#x", res.DecisionHash, want)
	}
	lad.ops += operations(res)
	lad.metroNs = float64(res.Elapsed)
	done("metropolis rung")
	return lad, nil
}

// surfaceRung times the compiled surfaces alone on every lookup the FACS
// makes in the stream (each request its station could carry), with the
// captured occupancy: FLC1, then FLC2 including the AxisRangeBounds error
// propagation. It checks every verdict the surfaces settle on their own —
// new calls whose A/R clears the accept threshold by more than the
// propagated bound — against the FACS verdicts.
func (lad *ladder) surfaceRung(s *stream, c *facs.CompiledController, verdicts []bool) error {
	var idx []int
	for i := range s.reqs {
		if s.reqs[i].Call.BU <= int(s.free[i]) {
			idx = append(idx, i)
		}
	}
	lad.lookups = len(idx)
	if len(idx) == 0 {
		return fmt.Errorf("surface rung: no request fits its station")
	}
	f1, f2 := c.FLC1Surface(), c.FLC2Surface()
	cv, b1 := make([]float64, len(idx)), make([]float64, len(idx))
	ar, guard := make([]float64, len(idx)), make([]float64, len(idx))
	var t1, t2 []float64
	for pass := 0; pass < surfacePasses; pass++ {
		runtime.GC()
		start := time.Now()
		for k, i := range idx {
			o := s.reqs[i].Obs
			v, b, err := f1.EvaluateVecWithBound(o.SpeedKmh, o.AngleDeg, o.DistanceKm)
			if err != nil {
				return fmt.Errorf("surface rung: FLC1: %w", err)
			}
			cv[k], b1[k] = v, b
		}
		t1 = append(t1, float64(time.Since(start)))
		start = time.Now()
		for k, i := range idx {
			r, u := float64(s.reqs[i].Call.BU), float64(s.used[i])
			v, _, err := f2.EvaluateVecWithBound(cv[k], r, u)
			if err != nil {
				return fmt.Errorf("surface rung: FLC2: %w", err)
			}
			span := [2]float64{cv[k] - b1[k], cv[k] + b1[k]}
			slope, b2, err := f2.AxisRangeBounds(0, span[:], cv[k], r, u)
			if err != nil {
				return fmt.Errorf("surface rung: FLC2 bounds: %w", err)
			}
			ar[k], guard[k] = v, slope*b1[k]+b2
		}
		t2 = append(t2, float64(time.Since(start)))
	}
	lad.flc1Ns, lad.flc2Ns = median(t1), median(t2)
	lad.surfaceNs = lad.flc1Ns + lad.flc2Ns
	thr := c.AcceptThreshold()
	for k, i := range idx {
		if s.reqs[i].Handoff || math.Abs(ar[k]-thr) <= guard[k] {
			continue
		}
		lad.surfaceChecked++
		if (ar[k] >= thr) != verdicts[i] {
			return fmt.Errorf("surface rung: request %d: A/R %.6f against threshold %.6f contradicts the FACS verdict", i, ar[k], thr)
		}
	}
	return nil
}

// exactFallbackNs finds the stream's requests on which c's guard band
// falls back to the exact engines (one request at a time, from the
// controller's counters), then times the exact System.Evaluate on them.
func exactFallbackNs(s *stream, c *facs.CompiledController) (float64, int, error) {
	var idx []int
	for i := range s.reqs {
		r := &s.reqs[i]
		if r.Call.BU > int(s.free[i]) {
			continue
		}
		_, before := c.Stats()
		if _, err := c.Evaluate(r.Obs, r.Call.BU, int(s.used[i]), r.Handoff); err != nil {
			return 0, 0, fmt.Errorf("fallback scan: %w", err)
		}
		if _, after := c.Stats(); after != before {
			idx = append(idx, i)
			if len(idx) == maxExactSamples {
				break
			}
		}
	}
	if len(idx) == 0 {
		return 0, 0, fmt.Errorf("fallback scan: no request fell back to the exact engines")
	}
	sys := c.System()
	runtime.GC()
	start := time.Now()
	for _, i := range idx {
		r := &s.reqs[i]
		if _, err := sys.Evaluate(r.Obs, r.Call.BU, int(s.used[i]), r.Handoff); err != nil {
			return 0, 0, fmt.Errorf("exact evaluation: %w", err)
		}
	}
	return float64(time.Since(start)) / float64(len(idx)), len(idx), nil
}
