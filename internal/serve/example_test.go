package serve_test

import (
	"fmt"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/serve"
	"facs/internal/traffic"
)

// ExampleService streams a wave of admission requests through the
// micro-batcher. With Commit enabled the service owns station state:
// accepted calls are allocated before the next batch is decided, so
// the third video call no longer fits.
func ExampleService() {
	bs, err := cell.NewBaseStation(geo.Hex{}, geo.Point{}, 25)
	if err != nil {
		panic(err)
	}
	svc, err := serve.New(serve.Config{
		Controller: cac.CompleteSharing{},
		MaxBatch:   2, // two requests per micro-batch
		Commit:     true,
	})
	if err != nil {
		panic(err)
	}
	defer svc.Close()

	reqs := make([]cac.Request, 3)
	for i := range reqs {
		reqs[i] = cac.Request{
			Call:    cell.Call{ID: i + 1, Class: traffic.Video, BU: 10},
			Station: bs,
		}
	}
	responses := make([]serve.Response, len(reqs))
	if err := svc.SubmitAllInto(reqs, responses); err != nil {
		panic(err)
	}
	for i, r := range responses {
		fmt.Printf("call %d: %s (batch of %d)\n", i+1, r.Decision, r.Batch)
	}
	if err := svc.Close(); err != nil {
		panic(err)
	}
	stats := svc.Stats()
	fmt.Printf("decided %d in %d batches, committed %d\n", stats.Decided, stats.Batches, stats.Committed)
	// Output:
	// call 1: accept (batch of 2)
	// call 2: accept (batch of 2)
	// call 3: reject (batch of 1)
	// decided 3 in 2 batches, committed 2
}
