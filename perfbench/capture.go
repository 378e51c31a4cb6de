package main

import (
	"fmt"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/experiments"
	"facs/internal/shard"
)

// The rung ladder replays one captured op stream through each public
// entry point of the stack. The stream comes from a one-day MetroBatch
// run whose controller is wrapped in a recorder: the recorder sees every
// decision chunk and, because it declares the observer and ticker seams,
// every commit, release and tick — which the inline engine only uses to
// notify, so recording changes no outcome.

type opKind uint8

const (
	opDecide  opKind = iota // one arrival chunk: requests [lo, hi)
	opRelease               // consecutive retirements: releases [lo, hi)
	opHandoff               // release at station from, then decide request lo
	opTick                  // a tick barrier at now
)

type op struct {
	kind   opKind
	lo, hi int32
	from   int32
	now    float64
}

type release struct {
	id, station int32
	now         float64
}

// stream is one captured metropolis run. Stations are identified by
// their index in the network's (Q, R) station order, so the stream
// replays against any freshly built identical network.
type stream struct {
	reqs []cac.Request
	// station, used and free give each request's station and that
	// station's occupancy when the request was decided.
	station, used, free []int32
	accepted, committed []bool
	releases            []release
	ops                 []op
}

func (s *stream) decisions() int { return len(s.reqs) }

// rebind points every request at the same-index station of stations.
func (s *stream) rebind(stations []*cell.BaseStation) {
	for i := range s.reqs {
		s.reqs[i].Station = stations[s.station[i]]
	}
}

// hash folds the captured outcomes the way the metropolis DecisionHash
// does.
func (s *stream) hash() uint64 {
	h := newOutcomeHash()
	for _, o := range s.ops {
		switch o.kind {
		case opHandoff:
			h.add('H', s.reqs[o.lo].Call.ID, s.accepted[o.lo], s.committed[o.lo])
		case opDecide:
			for i := o.lo; i < o.hi; i++ {
				h.add('A', s.reqs[i].Call.ID, s.accepted[i], s.committed[i])
			}
		}
	}
	return uint64(h)
}

// outcomeHash is the metropolis DecisionHash: FNV-1a over a kind byte,
// the call ID's four low bytes and an accepted|committed bit pair.
type outcomeHash uint64

func newOutcomeHash() outcomeHash { return 14695981039346656037 }

func (h *outcomeHash) add(kind byte, id int, accepted, committed bool) {
	u := uint32(id)
	var bits byte
	if accepted {
		bits |= 1
	}
	if committed {
		bits |= 2
	}
	for _, b := range [...]byte{kind, byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24), bits} {
		*h = (*h ^ outcomeHash(b)) * 1099511628211
	}
}

// recorder forwards to the workload's controller and appends everything
// it sees to a stream.
type recorder struct {
	ctrl  cac.Controller
	batch cac.BatchIntoController
	obs   cac.Observer
	tick  cac.Ticker
	index map[*cell.BaseStation]int32
	s     *stream
	// next is the first request of the latest chunk that a commit
	// notification may still refer to (commits arrive in request order).
	next int
}

func newRecorder(ctrl cac.Controller, net *cell.Network, s *stream) (*recorder, error) {
	bi, ok := ctrl.(cac.BatchIntoController)
	if !ok {
		return nil, fmt.Errorf("capture: %s has no batch decision path", ctrl.Name())
	}
	r := &recorder{ctrl: ctrl, batch: bi, index: make(map[*cell.BaseStation]int32), s: s}
	r.obs, _ = ctrl.(cac.Observer)
	r.tick, _ = ctrl.(cac.Ticker)
	for i, bs := range net.Stations() {
		r.index[bs] = int32(i)
	}
	return r, nil
}

func (r *recorder) Name() string { return r.ctrl.Name() }

func (r *recorder) Decide(req cac.Request) (cac.Decision, error) {
	var out [1]cac.Decision
	err := r.DecideBatchInto([]cac.Request{req}, out[:])
	return out[0], err
}

func (r *recorder) DecideBatchInto(reqs []cac.Request, out []cac.Decision) error {
	s := r.s
	lo := int32(len(s.reqs))
	for i := range reqs {
		bs := reqs[i].Station
		s.reqs = append(s.reqs, reqs[i])
		s.station = append(s.station, r.index[bs])
		s.used = append(s.used, int32(bs.Used()))
		s.free = append(s.free, int32(bs.Free()))
	}
	if err := r.batch.DecideBatchInto(reqs, out); err != nil {
		return err
	}
	for i := range reqs {
		s.accepted = append(s.accepted, out[i].Accepted())
		s.committed = append(s.committed, false)
	}
	r.next = int(lo)
	hi := lo + int32(len(reqs))
	if len(reqs) == 1 && reqs[0].Handoff {
		if from, ok := r.popRelease(reqs[0].Call.ID); ok {
			s.ops = append(s.ops, op{kind: opHandoff, lo: lo, hi: hi, from: from, now: reqs[0].Now})
			return nil
		}
	}
	s.ops = append(s.ops, op{kind: opDecide, lo: lo, hi: hi})
	return nil
}

// popRelease takes back the latest release when it retired call id: the
// inline engine's handoff releases the call at its source, then decides
// it at the target.
func (r *recorder) popRelease(id int) (int32, bool) {
	s := r.s
	n := len(s.ops)
	if n == 0 || s.ops[n-1].kind != opRelease {
		return 0, false
	}
	last := s.releases[len(s.releases)-1]
	if int(last.id) != id {
		return 0, false
	}
	s.releases = s.releases[:len(s.releases)-1]
	s.ops[n-1].hi--
	if s.ops[n-1].hi == s.ops[n-1].lo {
		s.ops = s.ops[:n-1]
	}
	return last.station, true
}

func (r *recorder) OnAdmit(req cac.Request) {
	s := r.s
	for i := r.next; i < len(s.reqs); i++ {
		if s.reqs[i].Call.ID == req.Call.ID {
			s.committed[i] = true
			r.next = i + 1
			break
		}
	}
	if r.obs != nil {
		r.obs.OnAdmit(req)
	}
}

func (r *recorder) OnRelease(id int, bs *cell.BaseStation, now float64) {
	s := r.s
	n := len(s.ops)
	if n == 0 || s.ops[n-1].kind != opRelease {
		at := int32(len(s.releases))
		s.ops = append(s.ops, op{kind: opRelease, lo: at, hi: at})
		n++
	}
	s.releases = append(s.releases, release{id: int32(id), station: r.index[bs], now: now})
	s.ops[n-1].hi++
	if r.obs != nil {
		r.obs.OnRelease(id, bs, now)
	}
}

func (r *recorder) OnTick(now float64) {
	r.s.ops = append(r.s.ops, op{kind: opTick, now: now})
	if r.tick != nil {
		r.tick.OnTick(now)
	}
}

// capture runs w for one simulated day on the inline MetroBatch engine
// with a recorder around its controller, and checks that the recorded
// outcomes hash to the run's DecisionHash.
func capture(w workload, seed int64, newCtrl ctrlFactory) (*stream, experiments.MetropolisResult, error) {
	s := &stream{}
	wrap := func(v shard.View) (cac.Controller, error) {
		ctrl, err := newCtrl(v)
		if err != nil {
			return nil, err
		}
		r, err := newRecorder(ctrl, v.Network(), s)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
	res, err := experiments.RunMetropolis(w.batchConfig(seed, 1, wrap))
	if err != nil {
		return nil, res, fmt.Errorf("capture: %w", err)
	}
	if got := s.hash(); got != res.DecisionHash {
		return nil, res, fmt.Errorf("capture: recorded outcomes hash to %#x, the run to %#x", got, res.DecisionHash)
	}
	return s, res, nil
}
