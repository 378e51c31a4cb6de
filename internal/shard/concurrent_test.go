package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/serve"
	"facs/internal/sim"
	"facs/internal/traffic"
)

// TestConcurrentMixedTrafficOrdering drives a 4-shard engine with a
// coalescing intake (MaxDelay > 0) from several goroutines at once,
// each mixing SubmitAsync (its reply read at once or later),
// SubmitWaveTo, Release of its own committed calls, HandoffCall and Do. Stations are far larger than the
// load, so under complete sharing every request commits and every
// release must find its call. It pins the intake drain contract —
// SubmitAsync(c) followed at once by Release(c), before the response is
// read, releases the committed call — and, after Flush, conservation:
// every station's occupancy is the sum of the calls it carries, exactly
// the calls the workers still hold; every request was decided once; and
// the merged latency histogram holds one sample per decision. Run it
// under -race.
func TestConcurrentMixedTrafficOrdering(t *testing.T) {
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 2, CapacityBU: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Network: net, Shards: 4, MaxBatch: 16, MaxDelay: 200 * time.Microsecond, Commit: true,
		NewController: func(View) (cac.Controller, error) { return cac.CompleteSharing{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stations := net.Stations()

	const workers, rounds = 6, 90
	var decisions atomic.Int64
	live := make([]map[int]*cell.BaseStation, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		live[w] = map[int]*cell.BaseStation{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := mixedWorker(e, stations, w, rounds, live[w], &decisions); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	want := map[int]*cell.BaseStation{}
	for _, calls := range live {
		for id, bs := range calls {
			want[id] = bs
		}
	}
	carried := 0
	for _, bs := range stations {
		sum := 0
		for _, c := range bs.Calls() {
			sum += c.BU
			if want[c.ID] != bs {
				t.Fatalf("station %v carries call %d, which no worker holds there", bs.Hex(), c.ID)
			}
		}
		if sum != bs.Used() {
			t.Fatalf("station %v: Used %d, calls sum to %d BU", bs.Hex(), bs.Used(), sum)
		}
		carried += bs.NumCalls()
	}
	if carried != len(want) {
		t.Fatalf("stations carry %d calls, workers hold %d", carried, len(want))
	}

	st := e.Stats()
	if st.Total.OpErrs != 0 {
		t.Fatalf("%d releases missed their call", st.Total.OpErrs)
	}
	if st.Total.Decided != decisions.Load() || st.Total.Committed != decisions.Load() {
		t.Fatalf("decided %d, committed %d, want %d requests", st.Total.Decided, st.Total.Committed, decisions.Load())
	}
	var samples int64
	for _, n := range st.Total.LatencyHist {
		samples += n
	}
	if samples != st.Total.Decided {
		t.Fatalf("merged latency histogram holds %d samples for %d decisions", samples, st.Total.Decided)
	}
	if st.Handoffs == 0 || st.Drops != 0 || st.Errs != 0 {
		t.Fatalf("handoff counters: %+v", st)
	}
}

// mixedWorker is one goroutine of TestConcurrentMixedTrafficOrdering.
// live tracks the calls it has committed and still carries; decisions
// counts every request it had decided, handoff admissions included.
func mixedWorker(e *Engine, stations []*cell.BaseStation, w, rounds int, live map[int]*cell.BaseStation, decisions *atomic.Int64) error {
	rng := sim.NewStream(int64(w), "mixed-traffic")
	nextID := (w + 1) * 1_000_000
	request := func(bs *cell.BaseStation) cac.Request {
		nextID++
		return cac.Request{Call: cell.Call{ID: nextID, Class: traffic.Voice, BU: traffic.Voice.BandwidthUnits()}, Station: bs}
	}
	pick := func() *cell.BaseStation { return stations[rng.Intn(len(stations))] }
	anyLive := func() (int, *cell.BaseStation) {
		for id, bs := range live {
			return id, bs
		}
		return 0, nil
	}
	committed := func(req cac.Request, resp serve.Response) error {
		decisions.Add(1)
		if !resp.Committed {
			return fmt.Errorf("worker %d: call %d not committed: %+v", w, req.Call.ID, resp)
		}
		live[req.Call.ID] = req.Station
		return nil
	}
	out := make([]serve.Response, 5)
	for r := 0; r < rounds; r++ {
		switch r % 6 {
		case 0: // The drain contract: release before reading the response.
			req := request(pick())
			ch := e.SubmitAsync(req)
			if err := e.Release(req.Call.ID, req.Station, float64(r)); err != nil {
				return err
			}
			resp := <-ch
			decisions.Add(1)
			if !resp.Committed {
				return fmt.Errorf("worker %d: call %d not committed: %+v", w, req.Call.ID, resp)
			}
		case 1:
			req := request(pick())
			if err := committed(req, <-e.SubmitAsync(req)); err != nil {
				return err
			}
		case 2:
			reqs := []cac.Request{request(pick()), request(pick()), request(pick())}
			chs := make([]<-chan serve.Response, len(reqs))
			for i, req := range reqs {
				chs[i] = e.SubmitAsync(req)
			}
			for i, ch := range chs {
				if err := committed(reqs[i], <-ch); err != nil {
					return err
				}
			}
		case 3:
			reqs := make([]cac.Request, len(out))
			for i := range reqs {
				reqs[i] = request(pick())
			}
			if err := e.SubmitWaveTo(reqs, out); err != nil {
				return err
			}
			for i, req := range reqs {
				if err := committed(req, out[i]); err != nil {
					return err
				}
			}
		case 4:
			if id, bs := anyLive(); bs != nil {
				if err := e.Release(id, bs, float64(r)); err != nil {
					return err
				}
				delete(live, id)
			}
			s := rng.Intn(e.Shards())
			var bad error
			if err := e.Do(s, func(cac.Controller) {
				for _, bs := range e.own.Load().views[s].Stations() {
					sum := 0
					for _, c := range bs.Calls() {
						sum += c.BU
					}
					if sum != bs.Used() {
						bad = fmt.Errorf("worker %d: inside Do, station %v Used %d, calls sum to %d", w, bs.Hex(), bs.Used(), sum)
					}
				}
			}); err != nil {
				return err
			}
			if bad != nil {
				return bad
			}
		case 5:
			id, from := anyLive()
			if from == nil {
				continue
			}
			to := pick()
			if to == from {
				continue // a handoff must leave its station
			}
			res := e.HandoffCall(Handoff{CallID: id, From: from, To: to, Now: float64(r)})
			if res.Err != nil {
				return fmt.Errorf("worker %d: handoff of call %d: %w", w, id, res.Err)
			}
			decisions.Add(1)
			if !res.Response.Committed {
				return fmt.Errorf("worker %d: handoff of call %d dropped: %+v", w, id, res.Response)
			}
			live[id] = to
		}
	}
	return nil
}
