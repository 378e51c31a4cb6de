package experiments

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/facs"
	"facs/internal/metrics"
	"facs/internal/traffic"
)

// resultDigest folds result fields into one FNV-64a digest: integers as
// little-endian uint64, floats by their bit patterns, strings with
// their length.
type resultDigest struct{ h hash.Hash64 }

func newResultDigest() resultDigest { return resultDigest{fnv.New64a()} }

func (d resultDigest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d resultDigest) ints(vs ...int) {
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d resultDigest) str(s string) {
	d.ints(len(s))
	d.h.Write([]byte(s))
}

func (d resultDigest) summary(s metrics.Summary) {
	d.u64(s.Count(), math.Float64bits(s.Mean()), math.Float64bits(s.Variance()),
		math.Float64bits(s.Min()), math.Float64bits(s.Max()))
}

func singleCellDigest(r SingleCellResult) uint64 {
	d := newResultDigest()
	d.ints(r.Requested, r.Accepted, len(r.ByClass))
	for _, c := range traffic.Classes() {
		d.u64(r.ByClass[c].Hits(), r.ByClass[c].Total())
	}
	d.summary(r.Occupancy)
	d.summary(r.MeanObservedAngleDeg)
	d.summary(r.MeanObservedSpeedKmh)
	d.ints(r.Queued, r.QueuedAccepted)
	d.summary(r.QueueWait)
	return d.h.Sum64()
}

func multiCellDigest(r MultiCellResult) uint64 {
	d := newResultDigest()
	d.str(r.ControllerName)
	d.ints(r.Requested, r.Accepted, r.HandoffAttempts, r.HandoffDrops, r.Completed)
	d.summary(r.Utilization)
	return d.h.Sum64()
}

func batchDigest(r BatchAdmissionResult) uint64 {
	d := newResultDigest()
	d.str(r.ControllerName)
	d.ints(r.PreAdmitted, r.Requested, r.Accepted, len(r.Decisions))
	for _, dec := range r.Decisions {
		d.ints(int(dec))
	}
	return d.h.Sum64()
}

// TestSimulatorResultPin pins every field of the event-driven
// simulators' results (RunSingleCell, RunMultiCell under both handoff
// policies) and of the batch sweep for small fixed configurations, so
// a change to how the runners decide, commit, release or notify their
// controllers cannot move a paper figure unnoticed. It also requires
// the configurations to reach the code paths they pin: queued text
// admissions, handoff drops and completed calls.
func TestSimulatorResultPin(t *testing.T) {
	compiled, err := facs.DefaultCompiled()
	if err != nil {
		t.Fatal(err)
	}
	exact := facs.Must()
	shared := func(*cell.Network) (cac.Controller, error) { return compiled, nil }
	guard := func(*cell.Network) (cac.Controller, error) { return cac.NewGuardChannel(8) }
	single := func(ctrl cac.Controller, queue bool) func(t *testing.T) uint64 {
		return func(t *testing.T) uint64 {
			res, err := RunSingleCell(SingleCellConfig{
				Controller:        ctrl,
				NumRequests:       100,
				QueueTextRequests: queue,
				MaxQueueWaitSec:   60,
				Seed:              4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if queue && res.QueuedAccepted == 0 {
				t.Fatal("no queued text request was admitted: the queue drain is not exercised")
			}
			return singleCellDigest(res)
		}
	}
	multi := func(f func(*cell.Network) (cac.Controller, error), policy HandoffPolicy) func(t *testing.T) uint64 {
		return func(t *testing.T) uint64 {
			res, err := RunMultiCell(MultiCellConfig{
				NewController:  f,
				NumRequests:    300,
				WindowSec:      100,
				MeanHoldingSec: 400,
				SpeedKmh:       Span{Min: 60, Max: 120},
				HandoffPolicy:  policy,
				Seed:           1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.HandoffDrops == 0 || res.Completed == 0 {
				t.Fatalf("run reaches too few paths: %d handoff drops, %d completed", res.HandoffDrops, res.Completed)
			}
			return multiCellDigest(res)
		}
	}
	batch := func(f func(*cell.Network) (cac.Controller, error)) func(t *testing.T) uint64 {
		return func(t *testing.T) uint64 {
			res, err := RunBatchAdmission(BatchAdmissionConfig{
				NewController: f,
				ActiveCalls:   120,
				Requests:      200,
				Seed:          2,
			})
			if err != nil {
				t.Fatal(err)
			}
			return batchDigest(res)
		}
	}
	threshold, err := cac.NewThresholdPolicy(map[traffic.Class]int{traffic.Video: 10})
	if err != nil {
		t.Fatal(err)
	}
	guardCtrl, err := cac.NewGuardChannel(8)
	if err != nil {
		t.Fatal(err)
	}
	biased := func(*cell.Network) (cac.Controller, error) { return facs.New(facs.WithHandoffBias(1)) }
	cases := []struct {
		name string
		run  func(t *testing.T) uint64
		want uint64
	}{
		{"single/facs-queue", single(exact, true), 0x625c3f8c4c6a46b6},
		{"single/compiled-queue", single(compiled, true), 0x625c3f8c4c6a46b6},
		{"single/cs", single(cac.CompleteSharing{}, false), 0x4a909553e95276f9},
		{"single/guard", single(guardCtrl, false), 0xb06fca9af7b2a9ec},
		{"single/threshold", single(threshold, false), 0xa7364bd4ed7d4b99},
		{"multi-physical/compiled", multi(shared, HandoffPhysical), 0xce7a4d47c141c0fa},
		{"multi-physical/scc", multi(SCCFactory(), HandoffPhysical), 0x71a2fda4dc00537a},
		{"multi-physical/scc-recompute", multi(SCCRecomputeFactory(), HandoffPhysical), 0x44365fbfbfa15347},
		{"multi-physical/guard", multi(guard, HandoffPhysical), 0x6b091616f5f8b1ed},
		{"multi-controlled/facs-bias", multi(biased, HandoffControlled), 0x7f4f7d3448af199d},
		{"multi-controlled/guard", multi(guard, HandoffControlled), 0x6b091616f5f8b1ed},
		{"batch/scc", batch(SCCFactory()), 0xbafdfb9f3b1e0d6f},
		{"batch/guard", batch(guard), 0xb9e3e2976044d960},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("result digest %#x, want %#x", got, tc.want)
			}
		})
	}
}
