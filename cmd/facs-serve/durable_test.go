package main

import (
	"bytes"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"facs"
	ishard "facs/internal/shard"
	itelemetry "facs/internal/telemetry"
	itraffic "facs/internal/traffic"
)

// TestIntakeClassCaps pins the shed ordering policy: text fills half
// the window, voice three quarters, video all of it, and every cap is
// at least one so no class is locked out entirely.
func TestIntakeClassCaps(t *testing.T) {
	in := newIntake(8)
	if got := in.capFor(itraffic.Text); got != 4 {
		t.Errorf("text cap = %d, want 4", got)
	}
	if got := in.capFor(itraffic.Voice); got != 6 {
		t.Errorf("voice cap = %d, want 6", got)
	}
	if got := in.capFor(itraffic.Video); got != 8 {
		t.Errorf("video cap = %d, want 8", got)
	}
	tiny := newIntake(1)
	for _, c := range itraffic.Classes() {
		if got := tiny.capFor(c); got != 1 {
			t.Errorf("%s cap at window 1 = %d, want 1", c, got)
		}
	}
}

// TestClassAwareShedding drives the serving loop with a window of four
// and a batcher slow enough that nothing decides mid-stream: the third
// text line sheds at the half-window cap while voice still enqueues,
// voice sheds at three quarters while video still enqueues, and video
// sheds only when the window is truly full. Shed responses carry the
// class so clients can tell which per-class window filled.
func TestClassAwareShedding(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ishard.New(ishard.Config{
		Network:       netw,
		Shards:        1,
		NewController: shardContestant(t, "cs"),
		MaxBatch:      64,
		MaxDelay:      300 * time.Millisecond, // hold every request undecided
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	lines := strings.Join([]string{
		`{"id":1,"class":"text","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":2,"class":"text","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":3,"class":"text","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":4,"class":"voice","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":5,"class":"voice","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":6,"class":"video","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":7,"class":"video","station":0,"speed":10,"angle":0,"distance":1}`,
	}, "\n") + "\n"

	in := newIntake(4)
	var out bytes.Buffer
	if err := serveStream(eng, netw, strings.NewReader(lines), &out, in); err != nil {
		t.Fatal(err)
	}
	got := decodeLines(t, out.String())
	for _, id := range []int{1, 2, 4, 6} {
		if r := got[id]; r.Error != "" || r.Decision != "accept" {
			t.Errorf("request %d should decide cleanly: %+v", id, r)
		}
	}
	for id, class := range map[int]string{3: "text", 5: "voice", 7: "video"} {
		r := got[id]
		if !strings.Contains(r.Error, "intake queue full") {
			t.Errorf("request %d should shed, got %+v", id, r)
		}
		if r.Class != class {
			t.Errorf("shed response %d carries class %q, want %q", id, r.Class, class)
		}
		if !strings.Contains(r.Error, "class "+class) {
			t.Errorf("shed error %d should name its class cap: %q", id, r.Error)
		}
	}
	for i, c := range itraffic.Classes() {
		if n := in.sheds[i].Load(); n != 1 {
			t.Errorf("%s shed counter = %d, want 1", c, n)
		}
	}
}

// TestMetricsEndpoint scrapes a live /metrics listener and validates
// the payload parses as Prometheus exposition text with the promised
// families present: throughput, the latency histogram, sharding and
// shed counters, the SCC ledger gauges, and snapshot freshness.
func TestMetricsEndpoint(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ishard.New(ishard.Config{
		Network:       netw,
		Shards:        2,
		NewController: shardContestant(t, "scc"),
		MaxBatch:      4,
		Commit:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	lines := strings.Join([]string{
		`{"id":1,"class":"voice","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":2,"class":"video","station":3,"speed":20,"angle":5,"distance":1}`,
		`{"op":"tick","now":5}`,
	}, "\n") + "\n"
	in := newIntake(16)
	var out bytes.Buffer
	if err := serveStream(eng, netw, strings.NewReader(lines), &out, in); err != nil {
		t.Fatal(err)
	}

	snaps := newSnapState(t.TempDir())
	if err := snaps.capture(eng); err != nil {
		t.Fatal(err)
	}

	var errw bytes.Buffer
	stop, err := serveMetrics("127.0.0.1:0", eng, in, snaps, &errw)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	logged := errw.String()
	start := strings.Index(logged, "http://")
	end := strings.Index(logged, "/metrics")
	if start < 0 || end < start {
		t.Fatalf("metrics address not logged: %q", logged)
	}
	url := logged[start:end] + "/metrics"

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := itelemetry.Parse(body)
	if err != nil {
		t.Fatalf("scrape is not valid exposition text: %v\n%s", err, body)
	}
	if samples == 0 {
		t.Fatal("scrape carried no samples")
	}
	for _, want := range []string{
		"facs_decisions_total 2",
		"facs_accepted_total",
		"facs_accept_rate",
		"facs_decision_latency_seconds_bucket",
		"facs_decision_latency_seconds_count 2",
		"facs_shards 2",
		"facs_ticks_total 1",
		`facs_shed_total{class="text"}`,
		"facs_ledger_active_calls",
		"facs_ledger_class_shadows_total",
		"facs_ledger_exact_shadows_total",
		"facs_ledger_visited_stations_total",
		"facs_ledger_weights_total",
		"facs_snapshots_total 1",
		"facs_snapshot_age_seconds",
		"facs_snapshot_size_bytes",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestServeSnapshotRestore exercises the durable round trip through
// the binary's entry point: a serving run fills a 10 BU station with a
// committed video call and writes the final snapshot at shutdown; a
// restored run rejects another video call on that station, proving the
// allocation survived the restart (a cold engine would accept it).
func TestServeSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	in1 := `{"id":1,"class":"video","station":0,"speed":10,"angle":0,"distance":1}` + "\n"
	var out, errw bytes.Buffer
	if err := run([]string{"-controller", "cs", "-shards", "2", "-capacity", "10", "-snapshot-dir", dir},
		strings.NewReader(in1), &out, &errw); err != nil {
		t.Fatal(err)
	}
	if r := decodeLines(t, out.String())[1]; !r.Committed {
		t.Fatalf("request 1 not committed: %+v (stderr %s)", r, errw.String())
	}
	path := filepath.Join(dir, engineSnapshotFile)
	if !strings.Contains(errw.String(), "final snapshot written to "+path) {
		t.Fatalf("shutdown did not report the final snapshot: %q", errw.String())
	}

	out.Reset()
	errw.Reset()
	in2 := `{"id":2,"class":"video","station":0,"speed":10,"angle":0,"distance":1}` + "\n"
	if err := run([]string{"-controller", "cs", "-shards", "2", "-capacity", "10", "-restore", path},
		strings.NewReader(in2), &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "restored engine state from "+path) {
		t.Fatalf("restore not reported: %q", errw.String())
	}
	if r := decodeLines(t, out.String())[2]; r.Decision != "reject" {
		t.Fatalf("restored station should be full and reject, got %+v", r)
	}

	// A snapshot refuses an engine with different sharding.
	if err := run([]string{"-controller", "cs", "-shards", "1", "-capacity", "10", "-restore", path},
		strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("restore into a differently-sharded engine should fail")
	}
}
