package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	ishard "facs/internal/shard"
	isnap "facs/internal/snap"
	itelemetry "facs/internal/telemetry"
	itraffic "facs/internal/traffic"
)

// engineSnapshotFile is the name snapshots take inside -snapshot-dir.
const engineSnapshotFile = "engine.snap"

// intake is the class-aware flow-control policy shared by every
// stream: per-class caps on the in-flight window plus shed counters
// for telemetry. Text fills only half the window and voice three
// quarters, so when a stream saturates, the lowest class sheds first
// and video keeps the whole window — the serving-side analogue of the
// controllers' class priorities.
type intake struct {
	max   int
	caps  [3]int
	sheds [3]atomic.Int64
}

func newIntake(maxInflight int) *intake {
	in := &intake{max: maxInflight}
	for i, c := range itraffic.Classes() {
		in.caps[i] = classCap(c, maxInflight)
	}
	return in
}

func classCap(c itraffic.Class, max int) int {
	cap := max
	switch c {
	case itraffic.Text:
		cap = max / 2
	case itraffic.Voice:
		cap = 3 * max / 4
	}
	if cap < 1 {
		cap = 1
	}
	return cap
}

func classIndex(c itraffic.Class) int {
	for i, k := range itraffic.Classes() {
		if k == c {
			return i
		}
	}
	return len(itraffic.Classes()) - 1
}

// capFor returns the in-flight cap a request of class c may fill.
func (in *intake) capFor(c itraffic.Class) int { return in.caps[classIndex(c)] }

// shed records one request of class c answered with the queue-full
// error instead of being enqueued.
func (in *intake) shed(c itraffic.Class) { in.sheds[classIndex(c)].Add(1) }

// snapState tracks durable snapshot activity: where snapshots land
// plus the count/age/size/duration gauges the telemetry endpoint
// exports. All fields are atomics because captures happen on stream
// goroutines while scrapes read from HTTP handlers.
type snapState struct {
	dir      string
	count    atomic.Int64
	lastUnix atomic.Int64 // unix nanoseconds of the last successful write
	lastSize atomic.Int64 // bytes
	lastDur  atomic.Int64 // nanoseconds
}

func newSnapState(dir string) *snapState { return &snapState{dir: dir} }

func (s *snapState) enabled() bool { return s.dir != "" }

func (s *snapState) path() string { return filepath.Join(s.dir, engineSnapshotFile) }

// capture cuts one engine snapshot atomically into the directory. The
// engine quiesces itself: SnapshotTo runs the capture inside each
// shard's Do barrier.
func (s *snapState) capture(eng *ishard.Engine) error {
	start := time.Now()
	size, err := isnap.WriteFileAtomic(s.path(), eng.SnapshotTo)
	if err != nil {
		return err
	}
	s.count.Add(1)
	s.lastSize.Store(size)
	s.lastDur.Store(int64(time.Since(start)))
	s.lastUnix.Store(time.Now().UnixNano())
	return nil
}

// snapshotFront wraps the engine's admitter surface to cut a durable
// snapshot every N tick barriers. The tick counter is atomic because
// TCP mode ticks from concurrent connection streams; the capture
// itself serializes on the engine's Do barrier.
type snapshotFront struct {
	*ishard.Engine
	snaps  *snapState
	every  int64
	ticks  atomic.Int64
	stderr io.Writer
}

func (f *snapshotFront) Tick(now float64) error {
	if err := f.Engine.Tick(now); err != nil {
		return err
	}
	if f.ticks.Add(1)%f.every == 0 {
		if err := f.snaps.capture(f.Engine); err != nil {
			fmt.Fprintln(f.stderr, "facs-serve: snapshot:", err)
		}
	}
	return nil
}

// restoreEngine warm-starts the engine from a snapshot file written by
// a previous run's -snapshot-dir.
func restoreEngine(eng *ishard.Engine, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := eng.RestoreFrom(f); err != nil {
		return fmt.Errorf("restoring %s: %w", path, err)
	}
	return nil
}

// serveMetrics exposes the engine's counters in the Prometheus text
// format on addr at /metrics. The returned stop function closes the
// listener. Listening happens synchronously so a bad address fails
// startup instead of surfacing later in a goroutine.
func serveMetrics(addr string, eng *ishard.Engine, in *intake, snaps *snapState, stderr io.Writer) (func(), error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, eng, in, snaps)
	})
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(stderr, "facs-serve: metrics:", err)
		}
	}()
	fmt.Fprintf(stderr, "facs-serve: metrics on http://%s/metrics\n", l.Addr())
	return func() { srv.Close() }, nil
}

// writeMetrics renders one scrape: decision throughput and latency,
// engine sharding counters, intake sheds by class, the SCC ledger
// counters when the controllers are demand ledgers, and snapshot
// freshness. Everything reads from counters the engine already
// maintains — the exporter holds no state of its own.
func writeMetrics(w io.Writer, eng *ishard.Engine, in *intake, snaps *snapState) {
	st := eng.Stats()
	total := st.Total
	m := itelemetry.NewWriter(w)

	m.Counter("facs_decisions_total", "Admission decisions rendered.", float64(total.Decided))
	m.Counter("facs_accepted_total", "Requests accepted.", float64(total.Accepted))
	m.Counter("facs_rejected_total", "Requests rejected.", float64(total.Rejected))
	m.Counter("facs_committed_total", "Accepted requests allocated on their stations.", float64(total.Committed))
	rate := 0.0
	if total.Decided > 0 {
		rate = float64(total.Accepted) / float64(total.Decided)
	}
	m.Gauge("facs_accept_rate", "Accepted / decided since startup.", rate)
	bounds, cumulative := itelemetry.LatencyBuckets(total.LatencyHist[:])
	m.Histogram("facs_decision_latency_seconds", "Service-side decision latency.",
		bounds, cumulative, total.AvgLatency.Seconds()*float64(total.Decided))

	m.Gauge("facs_shards", "Decision loops sharding the network.", float64(st.Shards))
	m.Counter("facs_waves_total", "Decision waves completed across shards.", float64(st.Waves))
	m.Counter("facs_ticks_total", "Tick barriers delivered.", float64(st.Ticks))
	m.Counter("facs_handoffs_total", "Two-phase handoffs completed.", float64(st.Handoffs))
	m.Counter("facs_handoff_drops_total", "Handoffs whose target shard did not commit.", float64(st.Drops))
	m.Counter("facs_cross_shard_handoffs_total", "Handoffs spanning two shards.", float64(st.CrossShard))
	m.Gauge("facs_epoch", "Current shard-ownership epoch.", float64(st.Epoch))
	m.Counter("facs_rebalances_total", "Ownership epochs that migrated cells.", float64(st.Rebalances))
	m.Counter("facs_ghost_rows_total", "Ghost demand rows exchanged at tick barriers.", float64(st.GhostRows))

	for _, c := range itraffic.Classes() {
		m.Counter("facs_shed_total", "Requests shed at intake, by class.",
			float64(in.sheds[classIndex(c)].Load()),
			itelemetry.Label{Name: "class", Value: c.String()})
	}

	if ledger, ok := ledgerStats(eng); ok {
		m.Gauge("facs_ledger_active_calls", "Calls tracked by the demand ledgers.", float64(ledger.ActiveCalls))
		m.Counter("facs_ledger_ghost_rows_total", "Ghost rows applied by the ledgers.", float64(ledger.GhostRows))
		m.Counter("facs_ledger_class_shadows_total", "Clusters asked of the class shadow.", float64(ledger.ClassShadows))
		m.Counter("facs_ledger_exact_shadows_total", "Clusters derived by the reference shadow.", float64(ledger.ExactShadows))
		m.Counter("facs_ledger_visited_stations_total", "Stations whose distance the shadows computed.", float64(ledger.Visited))
		m.Counter("facs_ledger_weights_total", "Station weights evaluated by the shadows.", float64(ledger.Exps))
	}

	m.Counter("facs_snapshots_total", "Durable snapshots written.", float64(snaps.count.Load()))
	if last := snaps.lastUnix.Load(); last > 0 {
		m.Gauge("facs_snapshot_age_seconds", "Seconds since the last durable snapshot.",
			time.Since(time.Unix(0, last)).Seconds())
		m.Gauge("facs_snapshot_size_bytes", "Size of the last durable snapshot.", float64(snaps.lastSize.Load()))
		m.Gauge("facs_snapshot_duration_seconds", "Wall-clock time of the last snapshot write.",
			time.Duration(snaps.lastDur.Load()).Seconds())
	}
}
