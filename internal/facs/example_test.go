package facs_test

import (
	"fmt"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/facs"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/traffic"
)

// ExampleCompiledController decides one admission request on the
// lookup-table fast path, which answers accept/reject only, then asks
// Evaluate for the grade, which the exact System computes.
func ExampleCompiledController() {
	cc, err := facs.DefaultCompiled() // compiled once, shared process-wide
	if err != nil {
		panic(err)
	}
	bs, err := cell.NewBaseStation(geo.Hex{}, geo.Point{}, cell.DefaultCapacityBU)
	if err != nil {
		panic(err)
	}
	for id := 1; bs.Used() < 12; id++ { // 12 BU occupied
		if err := bs.Admit(cell.Call{ID: id, Class: traffic.Text, BU: 1}); err != nil {
			panic(err)
		}
	}
	req := cac.Request{
		Call:    cell.Call{ID: 100, Class: traffic.Voice, BU: traffic.Voice.BandwidthUnits()},
		Station: bs,
		Obs:     gps.Observation{SpeedKmh: 60, AngleDeg: 0, DistanceKm: 2},
	}
	d, err := cc.Decide(req)
	if err != nil {
		panic(err)
	}
	exact, err := cc.System().Decide(req)
	if err != nil {
		panic(err)
	}
	ev, err := cc.Evaluate(req.Obs, req.Call.BU, bs.Used(), req.Handoff)
	if err != nil {
		panic(err)
	}
	fmt.Println("decision:", d)
	fmt.Println("matches exact system:", d == exact)
	fmt.Println("grade:", ev.Grade)
	// Output:
	// decision: accept
	// matches exact system: true
	// grade: weak-accept
}
