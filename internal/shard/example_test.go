package shard_test

import (
	"fmt"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/serve"
	"facs/internal/shard"
	"facs/internal/traffic"
)

// ExampleEngine shards a seven-cell network across three decision
// loops, streams one wave, and hands a committed call off to a
// neighbouring cell through the serialized two-phase protocol.
func ExampleEngine() {
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 1, CapacityBU: 20})
	if err != nil {
		panic(err)
	}
	eng, err := shard.New(shard.Config{
		Network: net,
		Shards:  3,
		Commit:  true,
		NewController: func(shard.View) (cac.Controller, error) {
			return cac.CompleteSharing{}, nil // cell-local: shard-count-invariant
		},
	})
	if err != nil {
		panic(err)
	}
	defer eng.Close()

	stations := net.Stations()
	reqs := make([]cac.Request, 3)
	for i := range reqs {
		reqs[i] = cac.Request{
			Call:    cell.Call{ID: i + 1, Class: traffic.Video, BU: 10},
			Station: stations[i], // three cells, three owner shards
		}
	}
	responses := make([]serve.Response, len(reqs))
	if err := eng.SubmitWaveTo(reqs, responses); err != nil {
		panic(err)
	}
	for i, r := range responses {
		fmt.Printf("call %d: %s committed=%v\n", i+1, r.Decision, r.Committed)
	}

	res := eng.HandoffCall(shard.Handoff{CallID: 1, From: stations[0], To: stations[1], Now: 5})
	fmt.Printf("handoff: %s cross-shard=%v dropped=%v\n",
		res.Response.Decision, res.CrossShard, res.Dropped())

	st := eng.Stats()
	fmt.Printf("%d shards decided %d, handoffs %d\n", st.Shards, st.Total.Decided, st.Handoffs)
	// Output:
	// call 1: accept committed=true
	// call 2: accept committed=true
	// call 3: accept committed=true
	// handoff: accept cross-shard=true dropped=false
	// 3 shards decided 4, handoffs 1
}
