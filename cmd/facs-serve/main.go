// Command facs-serve runs the streaming admission front end: a
// long-lived service that reads newline-delimited JSON admission
// requests from stdin (or serves them over TCP with -listen),
// micro-batches them through the configured controller, and writes one
// JSON decision line per request. The front end is the sharded
// admission engine: -shards N partitions the network's cells across N
// shards, each a controller behind its own lock, with deterministic
// routing (the default 1 serializes every decision behind one lock). For a self-driven closed loop
// through the same engine, run facs-sim -metropolis -metro-mode sharded.
//
// Examples:
//
//	echo '{"id":1,"class":"voice","station":0,"speed":40,"angle":0,"distance":2}' | facs-serve
//	facs-serve -compiled                                     # compiled FACS fast path
//	facs-serve -listen 127.0.0.1:4747 -controller scc
//	facs-serve -shards 4 -rings 3                            # sharded engine
//	facs-serve -snapshot-dir /var/lib/facs -snapshot-every-ticks 8 -metrics :9090
//	facs-serve -restore /var/lib/facs/engine.snap            # warm restart
//
// Request lines name a station by index plus the FLC1 observation
// (speed/angle/distance), or give an absolute position (x/y metres,
// heading degrees) that is mapped to the covering station:
//
//	{"id":1,"class":"voice","station":0,"speed":40,"angle":15,"distance":2.5,"handoff":false,"now":0}
//	{"id":2,"class":"video","x":1200,"y":-300,"heading":45,"speed":60,"now":1.5}
//
// Control lines share the stream and are serialized with the decisions:
//
//	{"op":"tick","now":10}
//	{"op":"release","id":1,"now":12}
//	{"op":"handoff","id":2,"x":2400,"y":-100,"heading":40,"speed":60,"now":13}
//
// A handoff op moves a committed call to the station covering the new
// position through the engine's two-phase protocol (release at the
// source shard, admit with handoff priority at the target shard); the
// response line reports the target-side decision — committed:false
// means the call was dropped. A handoff whose position maps to the
// call's current station is refused with an error line and leaves the
// call committed where it is:
//
//	{"id":2,"error":"shard: handoff of call 2 targets the station it is on"}
//
// Each decision line carries the request id, the outcome, whether the
// call was allocated (commit mode), the service-side latency and the
// micro-batch size that carried it:
//
//	{"id":1,"decision":"accept","committed":true,"latency_us":210,"batch":4}
//
// Responses stream back as batches complete and may interleave across
// ids; correlate by id. Release an admitted call only after observing
// its response. An id stays live from its request line until the call
// is answered uncommitted, released or dropped in a handoff; a request
// line reusing a live id is answered with an error line instead.
//
// Flow control: each stream holds at most -max-inflight undecided
// requests, and the window is class-aware — text requests may fill
// only half of it and voice three quarters, so under pressure the
// lowest class sheds first and video keeps the full window. A request
// line arriving past its class cap is not buffered; it is answered
// immediately with the documented error line
//
//	{"id":7,"class":"text","error":"intake queue full: 512 requests in flight (cap 512 for class text); read responses before submitting more"}
//
// so a well-behaved client treats it as backpressure and drains
// responses before retrying. On stream end (or Ctrl-D) the engine
// drains and a stats summary (including latency p50/p99) is printed to
// stderr; for -controller scc it appends the aggregated demand-ledger
// counters (ghost-exchange activity, migrations, shadow work).
//
// Durability: -snapshot-dir names a directory for checksummed engine
// snapshots (written atomically as engine.snap), cut every N tick
// barriers with -snapshot-every-ticks and always once at shutdown;
// -restore warm-starts a fresh process from such a file, refusing
// snapshots from a different deployment shape (sharding, rings,
// capacity, controller kind). SIGINT/SIGTERM shuts down gracefully:
// in-flight batches drain, the final snapshot lands, profiles stop,
// and the stats summary prints. -metrics serves the engine's counters
// (decision throughput, the latency histogram, accept rate, per-class
// intake sheds, SCC ledger activity, snapshot freshness) in Prometheus
// text format at /metrics.
//
// With -controller scc and -shards > 1 the per-shard demand ledgers
// exchange ghost demand at every tick barrier, restoring the Shadow
// Cluster baseline's global demand visibility across shards (see
// internal/scc's package documentation); {"op":"tick"} lines therefore
// also drive the exchange cadence.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"facs"
	icac "facs/internal/cac"
	icell "facs/internal/cell"
	iexp "facs/internal/experiments"
	igeo "facs/internal/geo"
	igps "facs/internal/gps"
	"facs/internal/prof"
	iscc "facs/internal/scc"
	iserve "facs/internal/serve"
	ishard "facs/internal/shard"
	itraffic "facs/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "facs-serve:", err)
		os.Exit(1)
	}
}

// serveOptions collects the parsed command line.
type serveOptions struct {
	listen       string
	controller   string
	compiled     bool
	shards       int
	partition    string
	rebalTicks   int
	rebalMoves   int
	batch        int
	maxDelay     time.Duration
	commit       bool
	maxInflight  int
	rings        int
	capacity     int
	guard        int
	cpuProfile   string
	memProfile   string
	traceOut     string
	snapshotDir  string
	snapshotTick int
	restorePath  string
	metricsAddr  string
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("facs-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o serveOptions
	fs.StringVar(&o.listen, "listen", "", "TCP address to serve NDJSON on (empty = stdin/stdout)")
	fs.StringVar(&o.controller, "controller", "facs", "admission controller: facs, scc, cs, guard, threshold")
	fs.BoolVar(&o.compiled, "compiled", false, "use the lookup-table FACS fast path (controller facs only)")
	fs.IntVar(&o.shards, "shards", 1, "shards to partition the network's cells across (at most the cell count)")
	fs.StringVar(&o.partition, "partition", "roundrobin", "initial shard layout: roundrobin, blocks")
	fs.IntVar(&o.rebalTicks, "rebalance-ticks", 0, "rebalance shard ownership every N tick barriers (0 = static)")
	fs.IntVar(&o.rebalMoves, "rebalance-max-moves", 0, "cap cell migrations per rebalance epoch (0 = planner default)")
	fs.IntVar(&o.batch, "batch", iserve.DefaultMaxBatch, "micro-batch size cap (the sharded engine's chunk size)")
	fs.DurationVar(&o.maxDelay, "max-delay", iserve.DefaultMaxDelay, "max time a request waits for its batch to fill (negative = never wait)")
	fs.BoolVar(&o.commit, "commit", true, "allocate accepted calls on their stations")
	fs.IntVar(&o.maxInflight, "max-inflight", 1024, "per-stream cap on undecided requests; excess lines get a queue-full error response")
	fs.IntVar(&o.rings, "rings", 1, "network size in hex rings (1 = seven cells)")
	fs.IntVar(&o.capacity, "capacity", icell.DefaultCapacityBU, "per-station bandwidth in BU")
	fs.IntVar(&o.guard, "guard", 8, "guard bandwidth for -controller guard")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile (stopped at shutdown) to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof allocs profile (post-GC, at shutdown) to this file")
	fs.StringVar(&o.traceOut, "trace", "", "write a runtime execution trace to this file")
	fs.StringVar(&o.snapshotDir, "snapshot-dir", "", "directory for durable engine snapshots (written atomically as engine.snap)")
	fs.IntVar(&o.snapshotTick, "snapshot-every-ticks", 0, "snapshot every N tick barriers into -snapshot-dir (0 = only the final on-shutdown snapshot)")
	fs.StringVar(&o.restorePath, "restore", "", "warm-start the engine from a snapshot file before serving")
	fs.StringVar(&o.metricsAddr, "metrics", "", "serve Prometheus text metrics on this address at /metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", o.shards)
	}
	if cells := igeo.SpiralLen(o.rings); o.rings >= 0 && o.shards > cells {
		return fmt.Errorf("-shards %d exceeds the deployment's %d cells (an empty shard could never receive traffic)", o.shards, cells)
	}
	partition, err := ishard.ParsePartition(o.partition)
	if err != nil {
		return err
	}
	if o.rebalTicks < 0 {
		return fmt.Errorf("-rebalance-ticks must be >= 0, got %d", o.rebalTicks)
	}
	if o.batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", o.batch)
	}
	if o.maxInflight < 1 {
		return fmt.Errorf("-max-inflight must be >= 1, got %d", o.maxInflight)
	}
	if o.snapshotTick < 0 {
		return fmt.Errorf("-snapshot-every-ticks must be >= 0, got %d", o.snapshotTick)
	}
	if o.snapshotTick > 0 && o.snapshotDir == "" {
		return fmt.Errorf("-snapshot-every-ticks needs a -snapshot-dir")
	}

	// The sharded engine calls the factory once per shard: every shard
	// shares one FACS, while scc builds a fresh (loop-confined) ledger
	// per shard.
	factory, err := iexp.Contestant{
		Name:            o.controller,
		GuardBU:         o.guard,
		AcceptThreshold: facs.DefaultAcceptThreshold,
		Compiled:        o.compiled,
		Log:             func(line string) { fmt.Fprintln(stderr, "facs-serve:", line) },
	}.Factory()
	if err != nil {
		return err
	}
	stopProf, err := prof.Start(prof.Config{
		CPUProfile: o.cpuProfile,
		MemProfile: o.memProfile,
		Trace:      o.traceOut,
	})
	if err != nil {
		return err
	}
	finishProf := func(err error) error {
		if perr := stopProf(); err == nil {
			return perr
		}
		return err
	}
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: o.rings, CapacityBU: o.capacity})
	if err != nil {
		return finishProf(err)
	}
	// The serving path always runs the sharded engine: at -shards 1 one
	// controller owns every cell; above it the cells spread across
	// shards decided in parallel.
	eng, err := ishard.New(ishard.Config{
		Network: netw,
		Shards:  o.shards,
		NewController: func(v ishard.View) (icac.Controller, error) {
			return factory(v.Network())
		},
		MaxBatch:            o.batch,
		MaxDelay:            o.maxDelay,
		Commit:              o.commit,
		Partition:           partition,
		RebalanceEveryTicks: o.rebalTicks,
		Rebalance:           ishard.PlannerConfig{MaxMoves: o.rebalMoves},
	})
	if err != nil {
		return finishProf(err)
	}
	defer eng.Close()

	if o.restorePath != "" {
		if err := restoreEngine(eng, o.restorePath); err != nil {
			return finishProf(err)
		}
		fmt.Fprintf(stderr, "facs-serve: restored engine state from %s\n", o.restorePath)
	}

	snaps := newSnapState(o.snapshotDir)
	in := newIntake(o.maxInflight)
	var front admitter = eng
	if o.snapshotTick > 0 {
		front = &snapshotFront{Engine: eng, snaps: snaps, every: int64(o.snapshotTick), stderr: stderr}
	}
	if o.metricsAddr != "" {
		stopMetrics, err := serveMetrics(o.metricsAddr, eng, in, snaps, stderr)
		if err != nil {
			return finishProf(err)
		}
		defer stopMetrics()
	}

	// shutdownServe runs once whether the stream drains normally or a
	// signal lands mid-serve: snapshot the ledger counters, cut the
	// final durable snapshot while the engine is still live, close the
	// loops and print the summary.
	var shutdownOnce sync.Once
	doShutdown := func() error {
		var err error
		shutdownOnce.Do(func() { err = shutdownServe(eng, snaps, stderr) })
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	if o.listen != "" {
		l, err := net.Listen("tcp", o.listen)
		if err != nil {
			return finishProf(err)
		}
		var stopping atomic.Bool
		go func() {
			s, ok := <-sig
			if !ok {
				return
			}
			fmt.Fprintf(stderr, "facs-serve: %v: shutting down\n", s)
			stopping.Store(true)
			l.Close()
		}()
		err = serveTCP(l, front, eng, netw, in, stderr)
		if stopping.Load() {
			err = nil
		}
		if err != nil {
			return finishProf(err)
		}
		return finishProf(doShutdown())
	}

	// Stdin mode: the scanner blocks on the pipe, so a signal drives the
	// drain-snapshot-close sequence directly and exits.
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(stderr, "facs-serve: %v: draining and shutting down\n", s)
		err := finishProf(doShutdown())
		if err != nil {
			fmt.Fprintln(stderr, "facs-serve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}()
	if err := serveStream(front, netw, stdin, stdout, in); err != nil {
		return finishProf(err)
	}
	return finishProf(doShutdown())
}

// shutdownServe drains and tears down the serving engine: controller
// counters (only reachable through the Do barrier) and the final
// durable snapshot are captured while the loops are live, then the
// engine closes and the summary prints.
func shutdownServe(eng *ishard.Engine, snaps *snapState, stderr io.Writer) error {
	ledger, hasLedger := ledgerStats(eng)
	if snaps.enabled() {
		if err := snaps.capture(eng); err != nil {
			fmt.Fprintln(stderr, "facs-serve: final snapshot:", err)
		} else {
			fmt.Fprintf(stderr, "facs-serve: final snapshot written to %s\n", snaps.path())
		}
	}
	if err := eng.Close(); err != nil {
		return err
	}
	printEngineStats(stderr, eng, ledger, hasLedger)
	return nil
}

// ledgerStats aggregates the per-shard SCC ledger snapshots through the
// engine's Do barrier; ok is false when the controllers are not demand
// ledgers (or the engine is already closed).
func ledgerStats(eng *ishard.Engine) (iscc.LedgerStats, bool) {
	var total iscc.LedgerStats
	found := false
	for s := 0; s < eng.Shards(); s++ {
		if err := eng.Do(s, func(ctrl icac.Controller) {
			if l, ok := ctrl.(*iscc.Ledger); ok {
				total = total.Add(l.Snapshot())
				found = true
			}
		}); err != nil {
			return iscc.LedgerStats{}, false
		}
	}
	return total, found
}

// printEngineStats writes the end-of-stream summary: the engine's
// counter line, extended with the ledger's observability counters for
// SCC runs so served runs can see the ghost exchange and shadow work.
func printEngineStats(stderr io.Writer, eng *ishard.Engine, ledger iscc.LedgerStats, hasLedger bool) {
	if hasLedger {
		fmt.Fprintf(stderr, "facs-serve: %s; %s\n", eng.Stats(), ledger)
		return
	}
	fmt.Fprintln(stderr, "facs-serve:", eng.Stats())
}

// admitter is the front-end surface serveStream drives: the sharded
// engine, or snapshotFront around it.
type admitter interface {
	SubmitAsync(req icac.Request) <-chan iserve.Response
	Tick(now float64) error
	Release(callID int, station *icell.BaseStation, now float64) error
	HandoffCall(h ishard.Handoff) ishard.HandoffResult
}

// serveTCP accepts connections and streams each over the shared
// engine. It runs until the listener closes (shutdown signal) or
// fails.
func serveTCP(l net.Listener, front admitter, eng *ishard.Engine, netw *facs.Network, in *intake, stderr io.Writer) error {
	defer l.Close()
	fmt.Fprintf(stderr, "facs-serve: listening on %s\n", l.Addr())
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			if err := serveStream(front, netw, conn, conn, in); err != nil {
				fmt.Fprintln(stderr, "facs-serve: connection:", err)
			}
			ledger, hasLedger := ledgerStats(eng)
			printEngineStats(stderr, eng, ledger, hasLedger)
		}()
	}
}

// wireRequest is one NDJSON input line: an admission request or (with
// Op set) a control operation.
type wireRequest struct {
	Op      string   `json:"op,omitempty"`
	ID      int      `json:"id"`
	Class   string   `json:"class,omitempty"`
	Station *int     `json:"station,omitempty"`
	X       *float64 `json:"x,omitempty"`
	Y       *float64 `json:"y,omitempty"`
	Heading float64  `json:"heading,omitempty"`
	Speed   float64  `json:"speed,omitempty"`
	Angle   float64  `json:"angle,omitempty"`
	Dist    *float64 `json:"distance,omitempty"`
	Handoff bool     `json:"handoff,omitempty"`
	Now     float64  `json:"now,omitempty"`
}

// wireResponse is one NDJSON output line. Class is set on shed
// responses so clients can tell which per-class intake window filled.
type wireResponse struct {
	ID        int    `json:"id"`
	Class     string `json:"class,omitempty"`
	Decision  string `json:"decision,omitempty"`
	Committed bool   `json:"committed,omitempty"`
	LatencyUS int64  `json:"latency_us,omitempty"`
	Batch     int    `json:"batch,omitempty"`
	Error     string `json:"error,omitempty"`
}

// toWire maps one service response onto the wire format.
func toWire(id int, resp iserve.Response) wireResponse {
	line := wireResponse{
		ID:        id,
		Decision:  resp.Decision.String(),
		Committed: resp.Committed,
		LatencyUS: resp.Latency.Microseconds(),
		Batch:     resp.Batch,
	}
	if resp.Err != nil {
		line.Error = resp.Err.Error()
	}
	return line
}

func parseClass(s string) (itraffic.Class, error) {
	for _, c := range itraffic.Classes() {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown class %q (want text, voice or video)", s)
}

// buildRequest maps one wire line to an admission request against the
// network.
func buildRequest(netw *facs.Network, stations []*icell.BaseStation, w wireRequest) (icac.Request, error) {
	class, err := parseClass(w.Class)
	if err != nil {
		return icac.Request{}, err
	}
	req := icac.Request{
		Call:    icell.Call{ID: w.ID, Class: class, BU: class.BandwidthUnits()},
		Handoff: w.Handoff,
		Now:     w.Now,
	}
	switch {
	case w.X != nil && w.Y != nil:
		pos := igeo.Point{X: *w.X, Y: *w.Y}
		bs, err := netw.StationAt(pos)
		if err != nil {
			return icac.Request{}, err
		}
		est := igps.Estimate{Pos: pos, HeadingDeg: w.Heading, SpeedKmh: w.Speed}
		req.Station = bs
		req.Est = est
		req.Obs = igps.Observe(est, bs.Pos())
	case w.Station != nil:
		if *w.Station < 0 || *w.Station >= len(stations) {
			return icac.Request{}, fmt.Errorf("station %d out of range (network has %d)", *w.Station, len(stations))
		}
		if w.Dist == nil {
			return icac.Request{}, fmt.Errorf("station-form request %d needs a distance", w.ID)
		}
		bs := stations[*w.Station]
		// Synthesize an absolute estimate consistent with the given
		// observation: place the user east of the station and aim the
		// heading so the angle to the station matches.
		pos := igeo.Point{X: bs.Pos().X + *w.Dist*1000, Y: bs.Pos().Y}
		bearing := igeo.BearingDeg(pos, bs.Pos())
		est := igps.Estimate{Pos: pos, HeadingDeg: bearing + w.Angle, SpeedKmh: w.Speed}
		req.Station = bs
		req.Est = est
		req.Obs = igps.Observation{SpeedKmh: w.Speed, AngleDeg: w.Angle, DistanceKm: *w.Dist}
	default:
		return icac.Request{}, fmt.Errorf("request %d needs either x/y or station+distance", w.ID)
	}
	return req, nil
}

// serveStream pumps one NDJSON stream through the front end: request
// lines are enqueued in order (decisions fan back as batches complete)
// under a bounded class-aware in-flight window, op lines are serialized
// behind the requests already enqueued on their stations' shards.
func serveStream(front admitter, netw *facs.Network, r io.Reader, w io.Writer, in *intake) error {
	stations := netw.Stations()
	var (
		outMu sync.Mutex
		wg    sync.WaitGroup
	)
	out := bufio.NewWriter(w)
	writeLine := func(resp wireResponse) {
		outMu.Lock()
		defer outMu.Unlock()
		b, err := json.Marshal(resp)
		if err != nil {
			return
		}
		out.Write(b)
		out.WriteByte('\n')
		out.Flush()
	}

	// inflight bounds the undecided requests buffered for this stream:
	// a full window sheds new request lines with the documented
	// queue-full error instead of buffering them without limit. The
	// window is class-aware: lower classes see a smaller cap, so under
	// pressure text sheds first, then voice, and video keeps the full
	// window (the scanner loop is the sole sender, so a level check
	// against the class cap cannot race with another enqueue).
	inflight := make(chan struct{}, in.max)

	// calls holds every call ID live on this stream: in flight (nil
	// station) or committed (its station, for release and handoff ops).
	// A request reusing a live ID is refused, so each committed call
	// stays releasable.
	var (
		callsMu sync.Mutex
		calls   = map[int]*icell.BaseStation{}
	)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var wr wireRequest
		if err := json.Unmarshal(line, &wr); err != nil {
			writeLine(wireResponse{ID: wr.ID, Error: fmt.Sprintf("bad line: %v", err)})
			continue
		}
		switch wr.Op {
		case "":
			class, err := parseClass(wr.Class)
			if err != nil {
				writeLine(wireResponse{ID: wr.ID, Error: err.Error()})
				continue
			}
			if limit := in.capFor(class); len(inflight) >= limit {
				in.shed(class)
				writeLine(wireResponse{ID: wr.ID, Class: class.String(), Error: fmt.Sprintf(
					"intake queue full: %d requests in flight (cap %d for class %s); read responses before submitting more",
					len(inflight), limit, class)})
				continue
			}
			inflight <- struct{}{}
			req, err := buildRequest(netw, stations, wr)
			if err == nil {
				callsMu.Lock()
				if _, live := calls[wr.ID]; live {
					err = fmt.Errorf("call %d is already live on this stream", wr.ID)
				} else {
					calls[wr.ID] = nil
				}
				callsMu.Unlock()
			}
			if err != nil {
				<-inflight
				writeLine(wireResponse{ID: wr.ID, Error: err.Error()})
				continue
			}
			ch := front.SubmitAsync(req)
			wg.Add(1)
			go func(id int, station *icell.BaseStation) {
				defer wg.Done()
				defer func() { <-inflight }()
				resp := <-ch
				callsMu.Lock()
				if resp.Committed {
					calls[id] = station
				} else {
					delete(calls, id)
				}
				callsMu.Unlock()
				writeLine(toWire(id, resp))
			}(wr.ID, req.Station)
		case "tick":
			if err := front.Tick(wr.Now); err != nil {
				writeLine(wireResponse{ID: wr.ID, Error: err.Error()})
			}
		case "release":
			callsMu.Lock()
			bs := calls[wr.ID]
			if bs != nil {
				delete(calls, wr.ID)
			}
			callsMu.Unlock()
			if bs == nil {
				writeLine(wireResponse{ID: wr.ID, Error: "release of unknown or uncommitted call"})
				continue
			}
			if err := front.Release(wr.ID, bs, wr.Now); err != nil {
				writeLine(wireResponse{ID: wr.ID, Error: err.Error()})
			}
		case "handoff":
			if wr.X == nil || wr.Y == nil {
				writeLine(wireResponse{ID: wr.ID, Error: "handoff needs the new x/y position"})
				continue
			}
			callsMu.Lock()
			from := calls[wr.ID]
			callsMu.Unlock()
			if from == nil {
				writeLine(wireResponse{ID: wr.ID, Error: "handoff of unknown or uncommitted call"})
				continue
			}
			pos := igeo.Point{X: *wr.X, Y: *wr.Y}
			target, err := netw.StationAt(pos)
			if err != nil {
				writeLine(wireResponse{ID: wr.ID, Error: err.Error()})
				continue
			}
			res := front.HandoffCall(ishard.Handoff{
				CallID: wr.ID,
				From:   from,
				To:     target,
				Est:    igps.Estimate{Pos: pos, HeadingDeg: wr.Heading, SpeedKmh: wr.Speed},
				Now:    wr.Now,
			})
			if res.Err != nil {
				writeLine(wireResponse{ID: wr.ID, Error: res.Err.Error()})
				continue
			}
			callsMu.Lock()
			if res.Response.Committed {
				calls[wr.ID] = target
			} else {
				delete(calls, wr.ID) // dropped: the source released it
			}
			callsMu.Unlock()
			writeLine(toWire(wr.ID, res.Response))
		default:
			writeLine(wireResponse{ID: wr.ID, Error: fmt.Sprintf("unknown op %q", wr.Op)})
		}
	}
	wg.Wait()
	outMu.Lock()
	out.Flush()
	outMu.Unlock()
	return sc.Err()
}
