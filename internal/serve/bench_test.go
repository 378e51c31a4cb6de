package serve

import (
	"sync"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/facs"
)

// benchSetup builds the shared fixture: a one-ring network, the exact
// FACS (stateless, so iterations never drift), and a request pool.
func benchSetup(b *testing.B) (*cell.Network, cac.Controller, []cac.Request) {
	b.Helper()
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 1})
	if err != nil {
		b.Fatal(err)
	}
	return net, facs.Must(), genRequests(b, net, 42, 4096)
}

// BenchmarkStreamingServe compares the micro-batched service against
// the raw batch pipeline it wraps. The acceptance bar from the
// streaming-service issue: at batch >= 64, the service stays within 2x
// of raw DecideBatch throughput (the wave path is within a few percent;
// the per-request Submit path additionally pays one channel round trip
// per request).
func BenchmarkStreamingServe(b *testing.B) {
	const batch = 64

	b.Run("raw-batch64", func(b *testing.B) {
		_, ctrl, reqs := benchSetup(b)
		b.ResetTimer()
		for done := 0; done < b.N; done += batch {
			off := done % (len(reqs) - batch)
			if _, err := cac.DecideAll(ctrl, reqs[off:off+batch]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("service-wave64", func(b *testing.B) {
		_, ctrl, reqs := benchSetup(b)
		s, err := New(Config{Controller: ctrl, MaxBatch: batch})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		out := make([]Response, batch)
		b.ResetTimer()
		for done := 0; done < b.N; done += batch {
			off := done % (len(reqs) - batch)
			if err := s.SubmitAllInto(reqs[off:off+batch], out); err != nil {
				b.Fatal(err)
			}
		}
	})

	// One blocked submitter per batch slot: the closed-loop window must
	// be at least MaxBatch wide for full batches to form; fewer clients
	// leave the batcher waiting out MaxDelay on every round.
	b.Run("service-submit-64clients", func(b *testing.B) {
		_, ctrl, reqs := benchSetup(b)
		s, err := New(Config{Controller: ctrl, MaxBatch: batch})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		const clients = batch
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < b.N; i += clients {
					if resp := <-s.SubmitAsync(reqs[i%len(reqs)]); resp.Err != nil {
						b.Error(resp.Err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})
}
