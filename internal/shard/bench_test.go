package shard

import (
	"fmt"
	"testing"

	"facs/internal/cac"
	"facs/internal/facs"
	"facs/internal/scc"
	"facs/internal/serve"
	"facs/internal/traffic"
)

// BenchmarkShardedServe measures decision throughput of the sharded
// engine against the serve.Service (one Core behind one lock) it
// generalises, on a multi-cell workload (37 cells, exact FACS — the
// Mamdani inference is the realistic per-decision cost that
// parallelism amortises). The acceptance bar: >= 1.5x over the Service
// at >= 4 shards on multi-core hardware; on a single core the engine
// must merely not regress (CI runs this as a 1x smoke). Commit stays
// off so iteration count cannot saturate station state and skew the
// accept path.
func BenchmarkShardedServe(b *testing.B) {
	const wave, maxBatch = 512, 128
	net := testNetwork(b, 3) // 37 cells
	sys := facs.Must()
	reqs := genRequests(b, net, 42, 8192)

	runWaves := func(b *testing.B, submit func([]cac.Request, []serve.Response) error) {
		b.Helper()
		out := make([]serve.Response, wave)
		b.ResetTimer()
		for done := 0; done < b.N; done += wave {
			off := done % (len(reqs) - wave)
			if err := submit(reqs[off:off+wave], out); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("single-loop", func(b *testing.B) {
		svc, err := serve.New(serve.Config{Controller: sys, MaxBatch: maxBatch})
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		runWaves(b, svc.SubmitAllInto)
	})

	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			e, err := New(Config{
				Network:       net,
				Shards:        shards,
				MaxBatch:      maxBatch,
				NewController: func(View) (cac.Controller, error) { return sys, nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			runWaves(b, e.SubmitWaveTo)
		})
	}
}

// BenchmarkShardedSCC measures the ghost-exchanging sharded SCC engine
// against one sequential demand ledger on the same committed workload:
// waves of admissions with a barrier tick (and so an exchange round)
// after each wave — the tick-aligned cadence whose outcomes the golden
// suite pins byte-identical to the sequential ledger. It tracks both
// the scaling of the SCC decision path and the overhead of the
// exchange itself.
func BenchmarkShardedSCC(b *testing.B) {
	const wave, maxBatch = 256, 256
	net := testNetwork(b, 3) // 37 cells
	reqs := genRequests(b, net, 43, 8192)
	out := make([]serve.Response, wave)
	ledgerFactory := func(v View) (cac.Controller, error) {
		return scc.NewLedger(scc.Config{Network: net})
	}

	b.Run("single-ledger", func(b *testing.B) {
		svc, err := serve.New(serve.Config{Controller: mustLedger(b, ledgerFactory), MaxBatch: maxBatch, Commit: true})
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		b.ResetTimer()
		for done := 0; done < b.N; done += wave {
			off := done % (len(reqs) - wave)
			if err := svc.SubmitAllInto(reqs[off:off+wave], out); err != nil {
				b.Fatal(err)
			}
			if err := svc.Tick(float64(done)); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			e, err := New(Config{
				Network:       net,
				Shards:        shards,
				MaxBatch:      maxBatch,
				Commit:        true,
				NewController: ledgerFactory,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			if e.exchangers == nil {
				b.Fatal("sharded SCC bench must run the ghost exchange")
			}
			b.ResetTimer()
			for done := 0; done < b.N; done += wave {
				off := done % (len(reqs) - wave)
				if err := e.SubmitWaveTo(reqs[off:off+wave], out); err != nil {
					b.Fatal(err)
				}
				if err := e.Tick(float64(done)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func mustLedger(b *testing.B, factory func(View) (cac.Controller, error)) cac.Controller {
	b.Helper()
	ctrl, err := factory(View{})
	if err != nil {
		b.Fatal(err)
	}
	return ctrl
}

// BenchmarkShardHandoff times one HandoffCall — source release, then
// target admission with handoff priority — on a 2-shard guard-channel
// engine in Commit mode. One voice call bounces between two stations
// owned by the same shard (same-shard) or by different shards
// (cross-shard), so every handoff commits and the station state stays
// put across iterations. It reports ns/op and allocs/op.
func BenchmarkShardHandoff(b *testing.B) {
	for _, tc := range []struct {
		name  string
		cross bool
	}{{"same-shard", false}, {"cross-shard", true}} {
		b.Run(tc.name, func(b *testing.B) {
			net := testNetwork(b, 1) // 7 cells, round-robin over 2 shards
			e, err := New(Config{Network: net, Shards: 2, Commit: true, NewController: guardFactory})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			stations := net.Stations()
			from, to := stations[0], stations[2] // shard 0, shard 0
			if tc.cross {
				to = stations[1] // shard 1
			}
			sf, _ := shardOf(e, from.Hex())
			st, _ := shardOf(e, to.Hex())
			if (sf != st) != tc.cross {
				b.Fatalf("stations %v and %v do not match the %s layout", from.Hex(), to.Hex(), tc.name)
			}
			req := genRequests(b, net, 1, 1)[0]
			req.Station = from
			req.Call.Class, req.Call.BU = traffic.Voice, traffic.Voice.BandwidthUnits()
			if resp := <-e.SubmitAsync(req); !resp.Committed {
				b.Fatalf("seed call not committed: %+v", resp)
			}
			h := Handoff{CallID: req.Call.ID, From: from, To: to, Est: req.Est}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Now = float64(i)
				if res := e.HandoffCall(h); res.Err != nil || !res.Response.Committed {
					b.Fatalf("handoff %d failed: %+v", i, res)
				}
				h.From, h.To = h.To, h.From
			}
		})
	}
}

// BenchmarkShardedIntake measures the SubmitAsync path facs-serve
// drives: one goroutine submits singles with up to 512 in flight and
// another waits for each response, so the intake decides them as
// micro-batches, each one chunk. It reports the share of non-first
// slices the helper ran (Stats.FanOuts) beside ns/op. Commit stays off,
// as in BenchmarkShardedServe.
func BenchmarkShardedIntake(b *testing.B) {
	net := testNetwork(b, 3) // 37 cells
	reqs := genRequests(b, net, 42, 8192)
	for _, c := range []struct {
		name    string
		factory func(View) (cac.Controller, error)
	}{{"guard", guardFactory}, {"facs", sharedFACS(b)}, {"scc", sccFactory(0)}} {
		for _, shards := range []int{2, 4} {
			b.Run(fmt.Sprintf("%s/shards-%d", c.name, shards), func(b *testing.B) {
				e, err := New(Config{Network: net, Shards: shards, NewController: c.factory})
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				inflight := make(chan (<-chan serve.Response), 512)
				done := make(chan struct{})
				go func() {
					for ch := range inflight {
						<-ch
					}
					close(done)
				}()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					inflight <- e.SubmitAsync(reqs[i%len(reqs)])
				}
				close(inflight)
				<-done
				b.StopTimer()
				f := e.Stats().FanOuts
				if posted := f.Awake + f.Woken + f.Inline + f.TakenBack; posted > 0 {
					b.ReportMetric(float64(f.Awake+f.Woken)/float64(posted), "helper-share")
				}
			})
		}
	}
}
