package experiments

import (
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/gps"
)

// dispatchSpy records every controller callback the multi-cell runner
// dispatches: decisions, admissions, releases and kinematic updates. It
// admits whenever the call fits, so the run exercises
// handoffs and completions.
type dispatchSpy struct {
	decides  int
	admits   []int
	releases []int
	updates  []int
}

func (s *dispatchSpy) Name() string { return "dispatch-spy" }

func (s *dispatchSpy) Decide(req cac.Request) (cac.Decision, error) {
	s.decides++
	return cac.CompleteSharing{}.Decide(req)
}

func (s *dispatchSpy) OnAdmit(req cac.Request) { s.admits = append(s.admits, req.Call.ID) }
func (s *dispatchSpy) OnRelease(id int, _ *cell.BaseStation, _ float64) {
	s.releases = append(s.releases, id)
}

func (s *dispatchSpy) OnStateUpdate(id int, est gps.Estimate, bs *cell.BaseStation) {
	s.updates = append(s.updates, id)
}

// TestMultiCellDispatch pins the runner's controller-callback contract:
// handoffs refresh kinematics through cac.StateUpdater, and completions
// and drops release through cac.Observer.
func TestMultiCellDispatch(t *testing.T) {
	spy := &dispatchSpy{}
	res, err := RunMultiCell(MultiCellConfig{
		NewController: func(*cell.Network) (cac.Controller, error) {
			return spy, nil
		},
		NumRequests: 60,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HandoffAttempts == 0 {
		t.Fatal("scenario produced no handoffs; the dispatch test needs mobility")
	}
	if len(spy.admits) != res.Accepted {
		t.Fatalf("OnAdmit for %d calls, accepted %d", len(spy.admits), res.Accepted)
	}
	// Every admitted call leaves exactly once: completion, coverage
	// exit, or handoff drop — all must release the controller's state.
	if len(spy.releases) != res.Accepted {
		t.Fatalf("OnRelease for %d calls, want %d (completed %d + dropped %d)",
			len(spy.releases), res.Accepted, res.Completed, res.HandoffDrops)
	}
	// Successful handoffs refresh kinematics; drops do not.
	wantUpdates := res.HandoffAttempts - res.HandoffDrops
	if len(spy.updates) != wantUpdates {
		t.Fatalf("OnStateUpdate %d times, want %d successful handoffs", len(spy.updates), wantUpdates)
	}
	if spy.decides == 0 {
		t.Fatal("no decisions dispatched")
	}
}

// TestMultiCellLedgerMatchesRecompute is the golden-equivalence suite
// at the scenario level: the paper's Fig. 10 multi-cell workload run
// against the incremental ledger and against the recompute oracle must
// produce byte-identical results — every counter and the utilization
// summary — for every seed and load point.
func TestMultiCellLedgerMatchesRecompute(t *testing.T) {
	loads := []int{40, 100}
	seeds := []int64{1, 2, 3}
	for _, n := range loads {
		for _, seed := range seeds {
			ledger, err := RunMultiCell(MultiCellConfig{
				NewController: SCCFactory(),
				NumRequests:   n,
				Seed:          seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := RunMultiCell(MultiCellConfig{
				NewController: SCCRecomputeFactory(),
				NumRequests:   n,
				Seed:          seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Identical up to the controller name.
			ledger.ControllerName = oracle.ControllerName
			if ledger != oracle {
				t.Fatalf("n=%d seed=%d: ledger %+v, oracle %+v", n, seed, ledger, oracle)
			}
		}
	}
}

// TestMultiCellLedgerMatchesRecomputeControlled repeats the equivalence
// with controller-routed handoffs, so the ledger also decides handoff
// admissions and sees kinematic updates mid-flight.
func TestMultiCellLedgerMatchesRecomputeControlled(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		ledger, err := RunMultiCell(MultiCellConfig{
			NewController: SCCFactory(),
			NumRequests:   60,
			HandoffPolicy: HandoffControlled,
			Seed:          seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := RunMultiCell(MultiCellConfig{
			NewController: SCCRecomputeFactory(),
			NumRequests:   60,
			HandoffPolicy: HandoffControlled,
			Seed:          seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ledger.ControllerName = oracle.ControllerName
		if ledger != oracle {
			t.Fatalf("seed=%d: ledger %+v, oracle %+v", seed, ledger, oracle)
		}
	}
}
