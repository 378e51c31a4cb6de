package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"facs"
	icac "facs/internal/cac"
	iexp "facs/internal/experiments"
	ishard "facs/internal/shard"
)

// shardContestant adapts the catalogue's constructor for name to the
// sharded engine.
func shardContestant(t *testing.T, name string) func(ishard.View) (icac.Controller, error) {
	t.Helper()
	factory, err := iexp.Contestant{Name: name}.Factory()
	if err != nil {
		t.Fatal(err)
	}
	return func(v ishard.View) (icac.Controller, error) { return factory(v.Network()) }
}

// TestBuildController holds facs-serve to the contestant catalogue:
// every catalogue name serves, and an unknown name fails with the
// catalogue's list (the same list facs-sim's TestBuildController
// expects).
func TestBuildController(t *testing.T) {
	for _, name := range append(append([]string{}, iexp.ContestantNames...), "bogus") {
		t.Run(name, func(t *testing.T) {
			var out, errw bytes.Buffer
			err := run([]string{"-controller", name}, strings.NewReader(""), &out, &errw)
			if name != "bogus" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "(valid: facs, scc, cs, guard, threshold)") {
				t.Fatalf("unknown controller should fail with the catalogue's names, got %v", err)
			}
		})
	}
}

// decodeLines parses every NDJSON output line by request id.
func decodeLines(t *testing.T, out string) map[int]wireResponse {
	t.Helper()
	got := map[int]wireResponse{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		var r wireResponse
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad output line %q: %v", line, err)
		}
		got[r.ID] = r
	}
	return got
}

func TestStdinStreamDecides(t *testing.T) {
	in := strings.Join([]string{
		`{"id":1,"class":"voice","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":2,"class":"video","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"op":"tick","now":5}`,
		`{"id":3,"class":"text","x":100,"y":50,"heading":10,"speed":30,"now":6}`,
		`{"op":"release","id":1,"now":7}`,
		`{"id":4,"class":"bogus","station":0,"speed":1,"distance":1}`,
		`{"id":5,"class":"text","station":99,"speed":1,"distance":1}`,
	}, "\n") + "\n"

	var out, errw bytes.Buffer
	if err := run([]string{"-batch", "4"}, strings.NewReader(in), &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := decodeLines(t, out.String())
	// Request 1 also receives a release op; depending on interleaving
	// its map entry may be the release outcome, so only its presence is
	// asserted. Requests 2 and 3 must carry clean decisions.
	if _, ok := got[1]; !ok {
		t.Fatalf("no response for request 1 (out: %s)", out.String())
	}
	for _, id := range []int{2, 3} {
		r, ok := got[id]
		if !ok {
			t.Fatalf("no response for request %d (out: %s)", id, out.String())
		}
		if r.Error != "" {
			t.Fatalf("request %d failed: %s", id, r.Error)
		}
		if r.Decision != "accept" && r.Decision != "reject" {
			t.Fatalf("request %d has decision %q", id, r.Decision)
		}
		if r.Batch < 1 {
			t.Fatalf("request %d reports batch %d", id, r.Batch)
		}
	}
	if r := got[4]; r.Error == "" {
		t.Fatalf("bogus class should error, got %+v", r)
	}
	if r := got[5]; r.Error == "" {
		t.Fatalf("out-of-range station should error, got %+v", r)
	}
	if !strings.Contains(errw.String(), "decided") {
		t.Fatalf("stats summary missing from stderr: %q", errw.String())
	}
}

func TestStdinReleaseUnknownCall(t *testing.T) {
	in := `{"op":"release","id":42,"now":1}` + "\n"
	var out, errw bytes.Buffer
	if err := run(nil, strings.NewReader(in), &out, &errw); err != nil {
		t.Fatal(err)
	}
	if r := decodeLines(t, out.String())[42]; !strings.Contains(r.Error, "unknown") {
		t.Fatalf("expected unknown-call error, got %+v", r)
	}
}

func TestFlagValidation(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-compiled", "-controller", "cs"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("-compiled with a non-facs controller should fail")
	}
	if err := run([]string{"-controller", "nope"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("unknown controller should fail")
	}
	if err := run([]string{"-batch", "0"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("zero batch should fail")
	}
	if err := run([]string{"-shards", "0"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("zero shards should fail")
	}
	if err := run([]string{"-max-inflight", "0"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("zero max-inflight should fail")
	}
}

func TestShardsBoundedByCells(t *testing.T) {
	var out, errw bytes.Buffer
	// A rings-2 deployment has 19 cells: a 20th shard could never own one.
	err := run([]string{"-rings", "2", "-shards", "20"}, strings.NewReader(""), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "exceeds the deployment's 19 cells") {
		t.Fatalf("-shards above the cell count should fail clearly, got %v", err)
	}
	if err := run([]string{"-rings", "2", "-shards", "19", "-controller", "cs"},
		strings.NewReader(""), &out, &errw); err != nil {
		t.Fatalf("-shards equal to the cell count must stay valid: %v", err)
	}
	// A 0-ring deployment is one cell, so a second shard is refused too.
	err = run([]string{"-rings", "0", "-shards", "2"}, strings.NewReader(""), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "exceeds the deployment's 1 cells") {
		t.Fatalf("-rings 0 -shards 2 should fail clearly, got %v", err)
	}
	// A negative ring count is a network error, whatever the shard count.
	err = run([]string{"-rings", "-1", "-shards", "2"}, strings.NewReader(""), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "rings must be >= 0") {
		t.Fatalf("-rings -1 should fail with the network error, got %v", err)
	}
}

func TestElasticShardingFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-partition", "bogus"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("unknown -partition should fail")
	}
	if err := run([]string{"-rebalance-ticks", "-1"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("negative -rebalance-ticks should fail")
	}
	// Load three cells of the first block and wait for their responses,
	// so the routed work is on the books; the tick that follows then
	// plans an epoch that moves cells off the hot shard.
	stdin, feed := io.Pipe()
	var stdout lockedBuffer
	errw.Reset()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-shards", "4", "-rings", "2", "-controller", "guard",
			"-partition", "blocks", "-rebalance-ticks", "1"}, stdin, &stdout, &errw)
	}()
	for id := 1; id <= 30; id++ {
		fmt.Fprintf(feed, `{"id":%d,"class":"voice","station":%d,"speed":10,"angle":0,"distance":1}`+"\n", id, id%3)
	}
	deadline := time.Now().Add(10 * time.Second)
	for strings.Count(stdout.String(), "\n") < 30 {
		if time.Now().After(deadline) {
			t.Fatalf("responses did not arrive: %q", stdout.String())
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Fprintln(feed, `{"op":"tick","now":5}`)
	feed.Close()
	if err := <-done; err != nil {
		t.Fatalf("elastic sharded serving run: %v", err)
	}
	if got := decodeLines(t, stdout.String()); len(got) != 30 {
		t.Fatalf("got %d responses, want 30", len(got))
	}
	if text := errw.String(); !strings.Contains(text, "4 shards") || !strings.Contains(text, "rebalances 1 (epoch 1") {
		t.Fatalf("stats summary missing the applied epoch: %q", text)
	}
}

// lockedBuffer is a bytes.Buffer safe to read while run writes to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSCCServeReportsLedgerStats pins the observability satellite: an
// SCC stream run's end-of-stream line carries the ledger counter
// summary (ghost exchange activity, shadow work) that is
// otherwise unreachable behind the engine's shard locks.
func TestSCCServeReportsLedgerStats(t *testing.T) {
	in := strings.Join([]string{
		`{"id":1,"class":"voice","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":2,"class":"video","station":1,"speed":20,"angle":0,"distance":1}`,
		`{"op":"tick","now":5}`,
		`{"id":3,"class":"text","station":2,"speed":30,"angle":0,"distance":1}`,
	}, "\n") + "\n"
	var out, errw bytes.Buffer
	if err := run([]string{"-controller", "scc", "-shards", "2", "-rings", "2"},
		strings.NewReader(in), &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scc-ledger:", "ghost applies", "class shadows"} {
		if !strings.Contains(errw.String(), want) {
			t.Fatalf("end-of-stream line missing %q: %q", want, errw.String())
		}
	}
}

// TestShardedStdinStream runs the NDJSON path on a multi-shard engine.
func TestShardedStdinStream(t *testing.T) {
	in := strings.Join([]string{
		`{"id":1,"class":"voice","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":2,"class":"text","station":3,"speed":10,"angle":0,"distance":1}`,
		`{"id":3,"class":"video","station":6,"speed":40,"angle":5,"distance":1.5}`,
	}, "\n") + "\n"
	var out, errw bytes.Buffer
	if err := run([]string{"-shards", "4", "-controller", "cs"}, strings.NewReader(in), &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := decodeLines(t, out.String())
	for _, id := range []int{1, 2, 3} {
		r, ok := got[id]
		if !ok || r.Error != "" || r.Decision != "accept" || !r.Committed {
			t.Fatalf("request %d: %+v (out: %s)", id, r, out.String())
		}
	}
	if !strings.Contains(errw.String(), "4 shards") {
		t.Fatalf("stats summary should name the shard count: %q", errw.String())
	}
}

// TestBackpressureShedsWhenFull pins the flow-control contract: with a
// one-request window and a slow batcher, the second request line is
// not buffered — it is answered immediately with the documented
// queue-full error.
func TestBackpressureShedsWhenFull(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ishard.New(ishard.Config{
		Network:       netw,
		Shards:        1,
		NewController: shardContestant(t, "cs"),
		MaxBatch:      64,
		MaxDelay:      300 * time.Millisecond, // hold the first request undecided
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := strings.Join([]string{
		`{"id":1,"class":"text","station":0,"speed":10,"angle":0,"distance":1}`,
		`{"id":2,"class":"text","station":0,"speed":10,"angle":0,"distance":1}`,
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := serveStream(eng, netw, strings.NewReader(in), &out, newIntake(1)); err != nil {
		t.Fatal(err)
	}
	got := decodeLines(t, out.String())
	if r := got[1]; r.Error != "" || r.Decision != "accept" {
		t.Fatalf("request 1 should decide cleanly: %+v", r)
	}
	if r := got[2]; !strings.Contains(r.Error, "intake queue full") {
		t.Fatalf("request 2 should be shed with the queue-full error, got %+v", r)
	}
}

// TestHandoffOpOverStream drives the wire-level handoff protocol: a
// committed call moves to the cell covering its new position; an
// unknown call errors.
func TestHandoffOpOverStream(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ishard.New(ishard.Config{
		Network:       netw,
		Shards:        3,
		NewController: shardContestant(t, "cs"),
		Commit:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stations := netw.Stations()
	src, dst := stations[0], stations[1]

	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- serveStream(eng, netw, server, server, newIntake(64))
		server.Close()
	}()

	w := bufio.NewWriter(client)
	sc := bufio.NewScanner(client)
	readLine := func() wireResponse {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var r wireResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Admit at the source cell's centre, await the committed response.
	fmt.Fprintf(w, `{"id":7,"class":"voice","x":%g,"y":%g,"heading":0,"speed":30}`+"\n", src.Pos().X, src.Pos().Y)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if r := readLine(); r.ID != 7 || !r.Committed {
		t.Fatalf("admission response: %+v", r)
	}

	// Hand it off to the neighbouring cell's centre.
	fmt.Fprintf(w, `{"op":"handoff","id":7,"x":%g,"y":%g,"heading":10,"speed":30,"now":5}`+"\n", dst.Pos().X, dst.Pos().Y)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if r := readLine(); r.ID != 7 || !r.Committed || r.Decision != "accept" {
		t.Fatalf("handoff response: %+v", r)
	}
	if _, ok := src.Call(7); ok {
		t.Fatal("source still carries the call")
	}
	if _, ok := dst.Call(7); !ok {
		t.Fatal("target does not carry the call")
	}

	// Unknown call and missing position both error.
	fmt.Fprintf(w, `{"op":"handoff","id":99,"x":%g,"y":%g}`+"\n", dst.Pos().X, dst.Pos().Y)
	fmt.Fprintln(w, `{"op":"handoff","id":7}`)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if r := readLine(); !strings.Contains(r.Error, "unknown") {
		t.Fatalf("unknown-call handoff should error: %+v", r)
	}
	if r := readLine(); !strings.Contains(r.Error, "x/y") {
		t.Fatalf("positionless handoff should error: %+v", r)
	}

	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Unknown calls and malformed lines are shed at the wire layer, so
	// only the successful transfer reaches the engine's handoff protocol.
	if st := eng.Stats(); st.Handoffs != 1 || st.Errs != 0 || st.CrossShard != 1 {
		t.Fatalf("engine handoff counters: %+v", st)
	}
}

// TestServeStreamOverConnection exercises the same path TCP connections
// take, over an in-memory duplex pipe.
func TestServeStreamOverConnection(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ishard.New(ishard.Config{
		Network:       netw,
		Shards:        1,
		NewController: shardContestant(t, "cs"),
		MaxBatch:      4,
		Commit:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- serveStream(eng, netw, server, server, newIntake(1024))
		server.Close()
	}()

	w := bufio.NewWriter(client)
	for i := 1; i <= 6; i++ {
		fmt.Fprintf(w, `{"id":%d,"class":"text","station":%d,"speed":20,"angle":0,"distance":1}`+"\n", i, i%7)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(client)
	seen := map[int]bool{}
	for len(seen) < 6 && sc.Scan() {
		var r wireResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Error != "" {
			t.Fatalf("request %d failed: %s", r.ID, r.Error)
		}
		if r.Decision != "accept" {
			t.Fatalf("complete sharing should accept text on an empty network, got %+v", r)
		}
		seen[r.ID] = true
	}
	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats().Total; st.Decided != 6 || st.Committed != 6 {
		t.Fatalf("stats = %+v, want 6 decided and committed", st)
	}
}

// TestLiveCallIDRefused pins the stream's call-ID discipline: a request
// reusing the ID of a call still live on the stream is refused, so the
// release that follows frees the one call the ID names and the network
// ends empty. Once released, the ID may be reused.
func TestLiveCallIDRefused(t *testing.T) {
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ishard.New(ishard.Config{
		Network:       netw,
		Shards:        1,
		NewController: shardContestant(t, "cs"),
		Commit:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := serveStream(eng, netw, inR, outW, newIntake(64))
		outW.Close()
		done <- err
	}()
	sc := bufio.NewScanner(outR)
	send := func(line string) {
		t.Helper()
		if _, err := fmt.Fprintln(inW, line); err != nil {
			t.Fatal(err)
		}
	}
	exchange := func(line string) wireResponse {
		t.Helper()
		send(line)
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var r wireResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}

	if r := exchange(`{"id":7,"class":"voice","station":0,"speed":10,"angle":0,"distance":1}`); !r.Committed {
		t.Fatalf("first request should commit: %+v", r)
	}
	if r := exchange(`{"id":7,"class":"voice","station":1,"speed":10,"angle":0,"distance":1}`); r.Committed || !strings.Contains(r.Error, "already live") {
		t.Fatalf("request reusing a live id should be refused: %+v", r)
	}
	send(`{"op":"release","id":7,"now":1}`)
	if r := exchange(`{"id":7,"class":"voice","station":1,"speed":10,"angle":0,"distance":1}`); !r.Committed {
		t.Fatalf("a released id should be reusable: %+v", r)
	}
	send(`{"op":"release","id":7,"now":2}`)
	inW.Close()
	for sc.Scan() {
		t.Errorf("unexpected line %s", sc.Text())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	carried := 0
	for _, bs := range netw.Stations() {
		carried += bs.NumCalls()
	}
	if carried != 0 {
		t.Fatalf("network still carries %d calls after every id was released", carried)
	}
}
