package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"facs"
	ishard "facs/internal/shard"
)

// streamEngine builds the 7-cell network behind a 2-shard committing
// engine that decides every single at once (no coalescing wait).
func streamEngine(t *testing.T) (*facs.Network, *ishard.Engine) {
	t.Helper()
	netw, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ishard.New(ishard.Config{
		Network:       netw,
		Shards:        2,
		NewController: shardContestant(t, "cs"),
		MaxDelay:      -1,
		Commit:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return netw, eng
}

// TestHandoffOpSameStationRefused pins the handoff op whose position
// maps to the call's own station: it is answered with an error line and
// leaves the call committed there, releasable as before.
func TestHandoffOpSameStationRefused(t *testing.T) {
	netw, eng := streamEngine(t)
	src := netw.Stations()[0]
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := serveStream(eng, netw, inR, outW, newIntake(64))
		outW.Close()
		done <- err
	}()
	sc := bufio.NewScanner(outR)
	exchange := func(line string) wireResponse {
		t.Helper()
		if _, err := fmt.Fprintln(inW, line); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("admission should commit: %+v", r)
	}
	r := exchange(fmt.Sprintf(`{"op":"handoff","id":7,"x":%g,"y":%g,"heading":0,"speed":10,"now":5}`,
		src.Pos().X+100, src.Pos().Y))
	if r.ID != 7 || r.Committed || !strings.Contains(r.Error, "targets the station it is on") {
		t.Fatalf("same-station handoff should be refused: %+v", r)
	}
	if _, ok := src.Call(7); !ok {
		t.Fatal("a refused handoff released the call")
	}
	if _, err := fmt.Fprintln(inW, `{"op":"release","id":7,"now":6}`); err != nil {
		t.Fatal(err)
	}
	inW.Close()
	for sc.Scan() {
		t.Errorf("unexpected line %s", sc.Text())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if src.NumCalls() != 0 {
		t.Fatal("the call stayed live after a refused handoff")
	}
	if st := eng.Stats(); st.Handoffs != 0 || st.Errs != 1 {
		t.Fatalf("engine handoff counters: handoffs %d, errs %d", st.Handoffs, st.Errs)
	}
}

// FuzzServeStream drives the NDJSON intake with arbitrary bytes. It
// must neither panic nor hang; every output line must be a
// wireResponse whose id appeared in the input; and no station may end
// outside [0, capacity].
func FuzzServeStream(f *testing.F) {
	doc := []string{
		`{"id":1,"class":"voice","station":0,"speed":40,"angle":0,"distance":2}`,
		`{"id":1,"class":"voice","station":0,"speed":40,"angle":15,"distance":2.5,"handoff":false,"now":0}`,
		`{"id":2,"class":"video","x":1200,"y":-300,"heading":45,"speed":60,"now":1.5}`,
		`{"op":"tick","now":10}`,
		`{"op":"release","id":1,"now":12}`,
		`{"op":"handoff","id":2,"x":2400,"y":-100,"heading":40,"speed":60,"now":13}`,
	}
	for _, line := range doc {
		f.Add(line + "\n")
	}
	f.Add(strings.Join(doc, "\n") + "\n")
	f.Add(`{"id":3,"class":"text","station":0,"distance":1}` + strings.Repeat(" ", 1<<20) + "\n")
	f.Add(`{"id":4,"class":"voice","station":-1,"speed":10,"angle":0,"distance":1}` + "\n")
	f.Add(`{"op":"reboot","id":5}` + "\n")
	f.Add(`{"id":6,"class":"video","x":12`)
	f.Fuzz(func(t *testing.T, input string) {
		netw, eng := streamEngine(t)
		var out bytes.Buffer
		done := make(chan error, 1)
		go func() { done <- serveStream(eng, netw, strings.NewReader(input), &out, newIntake(16)) }()
		select {
		case <-done: // a scanner error (e.g. an over-long line) is a clean exit
		case <-time.After(10 * time.Second):
			t.Fatal("serveStream did not return")
		}

		ids := map[int]bool{}
		sc := bufio.NewScanner(strings.NewReader(input))
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			var wr wireRequest
			_ = json.Unmarshal(sc.Bytes(), &wr) // a failed decode still keeps the id it read
			ids[wr.ID] = true
		}
		for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
			if line == "" {
				continue
			}
			var r wireResponse
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&r); err != nil {
				t.Fatalf("output line %q is not a response: %v", line, err)
			}
			if !ids[r.ID] {
				t.Fatalf("response id %d never appeared in the input", r.ID)
			}
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, bs := range netw.Stations() {
			if bs.Used() < 0 || bs.Used() > bs.Capacity() {
				t.Fatalf("station %v uses %d of %d BU", bs.Hex(), bs.Used(), bs.Capacity())
			}
		}
	})
}
