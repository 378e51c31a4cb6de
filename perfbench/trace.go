package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/shard"
)

// Span recording for the traced run. The benchmark decorates each
// controller instance it hands to the engines; every call into the
// controller becomes a span, child of the span around the benchmark's
// call into RunMetropolis. Spans stay in memory, one buffer per
// decorated instance (each instance is confined to one decision loop, so
// its buffer needs no lock), and are written out when the run ends.

type spanKind uint8

const (
	spanRun spanKind = iota
	spanDecide
	spanObserve
	spanTick
	spanExchange
	spanMigrate
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"metro.run", "ctrl.decide", "ctrl.observe", "ctrl.tick", "ctrl.exchange", "ctrl.migrate",
}

// span is one timed call: start and end in nanoseconds since the
// tracer's epoch, the index of the enclosing span (-1 for the root), and
// the requests decided or demand rows moved.
type span struct {
	kind       spanKind
	parent     int32
	n          int32
	start, end int64
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
	root  span
}

type spanBuf struct {
	t     *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newBuf() *spanBuf {
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// record appends a span that opened at start and closes now, as a child
// of the root span.
func (b *spanBuf) record(k spanKind, start int64, n int) {
	b.spans = append(b.spans, span{kind: k, parent: 0, n: int32(n), start: start, end: b.t.now()})
}

// run times fn as the root span.
func (t *tracer) run(fn func() error) error {
	t.root = span{kind: spanRun, parent: -1, start: t.now()}
	err := fn()
	t.root.end = t.now()
	return err
}

// spans returns the root span followed by every recorded child.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := []span{t.root}
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// layerTimes sums, per span kind, the self time, the calls and the items
// (requests or rows) of a trace.
type layerTimes struct {
	self, calls, items [numSpanKinds]int64
}

// selfTimes attributes a trace's time to its span kinds. A span's self
// time is its duration minus the part of it its children cover; children
// of the root run on several decision loops at once, so their intervals
// are merged before they are subtracted.
func selfTimes(spans []span) layerTimes {
	var lt layerTimes
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		lt.calls[s.kind]++
		lt.items[s.kind] += int64(s.n)
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	for i, s := range spans {
		lt.self[s.kind] += s.end - s.start - covered(children[int32(i)])
	}
	return lt
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, lo, hi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= hi {
			hi = max(hi, x[1])
			continue
		}
		if open {
			total += hi - lo
		}
		lo, hi, open = x[0], x[1], true
	}
	if open {
		total += hi - lo
	}
	return total
}

// writeSpans writes a trace as tab-separated lines: id, parent, name,
// start and end in nanoseconds, items.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\titems")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, spanNames[s.kind], s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// capabilityChecks lists the optional controller interfaces the stack
// discovers by type assertion: the batch and observer seams (serve and
// the inline engine), and locality, exchange, scoping, resetting and
// migration (shard.New). A decorator must expose exactly the set of the
// controller it wraps, or the engines would take other paths.
var capabilityChecks = []struct {
	name string
	has  func(cac.Controller) bool
}{
	{"BatchController", func(c cac.Controller) bool { _, ok := c.(cac.BatchController); return ok }},
	{"BatchIntoController", func(c cac.Controller) bool { _, ok := c.(cac.BatchIntoController); return ok }},
	{"CellLocal", func(c cac.Controller) bool { _, ok := c.(cac.CellLocal); return ok }},
	{"Observer", func(c cac.Controller) bool { _, ok := c.(cac.Observer); return ok }},
	{"Ticker", func(c cac.Controller) bool { _, ok := c.(cac.Ticker); return ok }},
	{"StateUpdater", func(c cac.Controller) bool { _, ok := c.(cac.StateUpdater); return ok }},
	{"DemandExchanger", func(c cac.Controller) bool { _, ok := c.(cac.DemandExchanger); return ok }},
	{"InterestScoped", func(c cac.Controller) bool { _, ok := c.(cac.InterestScoped); return ok }},
	{"ExchangeResetter", func(c cac.Controller) bool { _, ok := c.(cac.ExchangeResetter); return ok }},
	{"CellMigrator", func(c cac.Controller) bool { _, ok := c.(cac.CellMigrator); return ok }},
	{"Snapshotter", func(c cac.Controller) bool { _, ok := c.(cac.Snapshotter); return ok }},
}

// capabilities names the optional interfaces c implements, comma
// separated in capabilityChecks order.
func capabilities(c cac.Controller) string {
	var names []string
	for _, chk := range capabilityChecks {
		if chk.has(c) {
			names = append(names, chk.name)
		}
	}
	return strings.Join(names, ",")
}

// The capability sets the decorators reproduce: compiled FACS, guard
// channel, and the SCC demand ledger.
const (
	localCaps     = "BatchController,BatchIntoController,CellLocal"
	localSnapCaps = localCaps + ",Snapshotter"
	ledgerCaps    = "BatchController,BatchIntoController,Observer,Ticker,StateUpdater," +
		"DemandExchanger,InterestScoped,ExchangeResetter,CellMigrator,Snapshotter"
)

// wrap decorates c with span recording. The decorator forwards every
// call and exposes exactly c's capability set.
func (t *tracer) wrap(c cac.Controller) (cac.Controller, error) {
	bi, ok := c.(cac.BatchIntoController)
	if !ok {
		return nil, fmt.Errorf("trace: %s has no batch decision path", c.Name())
	}
	base := &traced{inner: c, batch: bi, buf: t.newBuf()}
	switch caps := capabilities(c); caps {
	case localCaps:
		return &tracedLocal{base}, nil
	case localSnapCaps:
		return &tracedLocalSnap{tracedLocal{base}, c.(cac.Snapshotter)}, nil
	case ledgerCaps:
		return &tracedLedger{base, c.(ledgerAPI)}, nil
	default:
		return nil, fmt.Errorf("trace: no decorator for %s's capability set {%s}", c.Name(), caps)
	}
}

// factory decorates every controller inner builds.
func (t *tracer) factory(inner ctrlFactory) ctrlFactory {
	return func(v shard.View) (cac.Controller, error) {
		c, err := inner(v)
		if err != nil {
			return nil, err
		}
		return t.wrap(c)
	}
}

// traced forwards the Controller and batch seams, recording a span
// around each decision call.
type traced struct {
	inner cac.Controller
	batch cac.BatchIntoController
	buf   *spanBuf
}

func (t *traced) Name() string { return t.inner.Name() }

func (t *traced) Decide(req cac.Request) (cac.Decision, error) {
	start := t.buf.t.now()
	d, err := t.inner.Decide(req)
	t.buf.record(spanDecide, start, 1)
	return d, err
}

func (t *traced) DecideBatch(reqs []cac.Request) ([]cac.Decision, error) {
	out := make([]cac.Decision, len(reqs))
	if err := t.DecideBatchInto(reqs, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (t *traced) DecideBatchInto(reqs []cac.Request, out []cac.Decision) error {
	start := t.buf.t.now()
	err := t.batch.DecideBatchInto(reqs, out)
	t.buf.record(spanDecide, start, len(reqs))
	return err
}

// tracedLocal decorates a cell-local controller.
type tracedLocal struct{ *traced }

func (tracedLocal) CellLocal() {}

// tracedLocalSnap decorates a cell-local controller that snapshots.
type tracedLocalSnap struct {
	tracedLocal
	snap cac.Snapshotter
}

func (t *tracedLocalSnap) SnapshotTo(w io.Writer) error  { return t.snap.SnapshotTo(w) }
func (t *tracedLocalSnap) RestoreFrom(r io.Reader) error { return t.snap.RestoreFrom(r) }

// ledgerAPI is the SCC demand ledger's capability set.
type ledgerAPI interface {
	cac.BatchIntoController
	cac.Observer
	cac.Ticker
	cac.StateUpdater
	cac.InterestScoped
	cac.ExchangeResetter
	cac.CellMigrator
	cac.Snapshotter
}

// tracedLedger decorates the SCC demand ledger: observer callbacks,
// ticks, the ghost exchange and migrations are spans too.
type tracedLedger struct {
	*traced
	l ledgerAPI
}

func (t *tracedLedger) OnAdmit(req cac.Request) {
	start := t.buf.t.now()
	t.l.OnAdmit(req)
	t.buf.record(spanObserve, start, 1)
}

func (t *tracedLedger) OnRelease(id int, bs *cell.BaseStation, now float64) {
	start := t.buf.t.now()
	t.l.OnRelease(id, bs, now)
	t.buf.record(spanObserve, start, 1)
}

func (t *tracedLedger) OnStateUpdate(id int, est gps.Estimate, bs *cell.BaseStation) {
	start := t.buf.t.now()
	t.l.OnStateUpdate(id, est, bs)
	t.buf.record(spanObserve, start, 1)
}

func (t *tracedLedger) OnTick(now float64) {
	start := t.buf.t.now()
	t.l.OnTick(now)
	t.buf.record(spanTick, start, 0)
}

func (t *tracedLedger) ExportDemand() cac.DemandDelta {
	start := t.buf.t.now()
	d := t.l.ExportDemand()
	t.buf.record(spanExchange, start, len(d.Rows))
	return d
}

func (t *tracedLedger) ApplyGhost(shardID int, d cac.DemandDelta) {
	start := t.buf.t.now()
	t.l.ApplyGhost(shardID, d)
	t.buf.record(spanExchange, start, len(d.Rows))
}

func (t *tracedLedger) InterestRadiusCells() int { return t.l.InterestRadiusCells() }

func (t *tracedLedger) ResetExchange() { t.l.ResetExchange() }

func (t *tracedLedger) MigrateOut(h geo.Hex, dst []cac.MigratedCall) []cac.MigratedCall {
	start := t.buf.t.now()
	out := t.l.MigrateOut(h, dst)
	t.buf.record(spanMigrate, start, len(out)-len(dst))
	return out
}

func (t *tracedLedger) MigrateIn(rows []cac.MigratedCall) {
	start := t.buf.t.now()
	t.l.MigrateIn(rows)
	t.buf.record(spanMigrate, start, len(rows))
}

func (t *tracedLedger) SnapshotTo(w io.Writer) error  { return t.l.SnapshotTo(w) }
func (t *tracedLedger) RestoreFrom(r io.Reader) error { return t.l.RestoreFrom(r) }
