package experiments

import (
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/facs"
	"facs/internal/gps"
	"facs/internal/scc"
)

// sequentialOnly hides a controller's native batch path (and its
// Ticker), forcing cac.DecideAll onto the sequential adapter while
// keeping Observer/StateUpdater semantics intact.
type sequentialOnly struct {
	inner cac.Controller
}

func (s sequentialOnly) Name() string                                 { return s.inner.Name() }
func (s sequentialOnly) Decide(req cac.Request) (cac.Decision, error) { return s.inner.Decide(req) }

func (s sequentialOnly) OnAdmit(req cac.Request) {
	if obs, ok := s.inner.(cac.Observer); ok {
		obs.OnAdmit(req)
	}
}

func (s sequentialOnly) OnRelease(callID int, bs *cell.BaseStation, now float64) {
	if obs, ok := s.inner.(cac.Observer); ok {
		obs.OnRelease(callID, bs, now)
	}
}

func (s sequentialOnly) OnStateUpdate(callID int, est gps.Estimate, bs *cell.BaseStation) {
	if up, ok := s.inner.(cac.StateUpdater); ok {
		up.OnStateUpdate(callID, est, bs)
	}
}

// TestBatchAdmissionMatchesSequential runs the identical sweep (same
// seed, same snapshot) through each controller's native batch path and
// through the sequential adapter, and asserts decision-for-decision
// equality — the BatchController contract, end to end through the
// driver.
func TestBatchAdmissionMatchesSequential(t *testing.T) {
	factories := map[string]func(net *cell.Network) (cac.Controller, error){
		"scc-ledger": SCCFactory(),
		"facs":       FACSFactory(),
		"guard": func(*cell.Network) (cac.Controller, error) {
			return cac.NewGuardChannel(8)
		},
	}
	for name, factory := range factories {
		factory := factory
		t.Run(name, func(t *testing.T) {
			cfg := BatchAdmissionConfig{
				NewController: factory,
				ActiveCalls:   60,
				Requests:      200,
				Seed:          3,
			}
			native, err := RunBatchAdmission(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.NewController = func(net *cell.Network) (cac.Controller, error) {
				inner, err := factory(net)
				if err != nil {
					return nil, err
				}
				return sequentialOnly{inner: inner}, nil
			}
			sequential, err := RunBatchAdmission(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if native.PreAdmitted != sequential.PreAdmitted {
				t.Fatalf("snapshots diverged: %d vs %d pre-admitted", native.PreAdmitted, sequential.PreAdmitted)
			}
			if native.Requested != sequential.Requested || native.Requested != 200 {
				t.Fatalf("requested %d native, %d sequential, want 200", native.Requested, sequential.Requested)
			}
			for i := range native.Decisions {
				if native.Decisions[i] != sequential.Decisions[i] {
					t.Fatalf("request %d: native %v, sequential %v", i, native.Decisions[i], sequential.Decisions[i])
				}
			}
			if native.Accepted != sequential.Accepted {
				t.Fatalf("accepted %d native, %d sequential", native.Accepted, sequential.Accepted)
			}
			if native.Accepted == 0 || native.Accepted == native.Requested {
				t.Fatalf("degenerate sweep: %d/%d accepted", native.Accepted, native.Requested)
			}
		})
	}
}

// TestBatchAdmissionLoadsSnapshot asserts the pre-admission pass
// populates both the stations and a tracking controller.
func TestBatchAdmissionLoadsSnapshot(t *testing.T) {
	var captured *scc.Ledger
	res, err := RunBatchAdmission(BatchAdmissionConfig{
		NewController: func(net *cell.Network) (cac.Controller, error) {
			l, err := scc.NewLedger(scc.Config{Network: net})
			captured = l
			return l, err
		},
		ActiveCalls: 30,
		Requests:    50,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PreAdmitted == 0 {
		t.Fatal("no snapshot calls loaded")
	}
	if captured.ActiveCalls() != res.PreAdmitted {
		t.Fatalf("ledger tracks %d calls, snapshot loaded %d", captured.ActiveCalls(), res.PreAdmitted)
	}
	if res.ControllerName != "scc-ledger" {
		t.Fatalf("ControllerName = %q", res.ControllerName)
	}
	if got := res.AcceptedPct(); got < 0 || got > 100 {
		t.Fatalf("AcceptedPct = %v", got)
	}
}

// TestBatchAdmissionValidation covers the config error paths.
func TestBatchAdmissionValidation(t *testing.T) {
	if _, err := RunBatchAdmission(BatchAdmissionConfig{Requests: 10}); err == nil {
		t.Fatal("missing factory should error")
	}
	if _, err := RunBatchAdmission(BatchAdmissionConfig{NewController: FACSFactory()}); err == nil {
		t.Fatal("zero requests should error")
	}
	if _, err := RunBatchAdmission(BatchAdmissionConfig{
		NewController: FACSFactory(), Requests: 1, ActiveCalls: -1,
	}); err == nil {
		t.Fatal("negative active calls should error")
	}
}

// TestCompiledBatchAdmission sweeps the shared compiled FACS through
// the batch driver, exercising its station-occupancy caching across a
// multi-station request stream.
func TestCompiledBatchAdmission(t *testing.T) {
	res, err := RunBatchAdmission(BatchAdmissionConfig{
		NewController: func(*cell.Network) (cac.Controller, error) { return facs.DefaultCompiled() },
		ActiveCalls:   40,
		Requests:      150,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := RunBatchAdmission(BatchAdmissionConfig{
		NewController: func(*cell.Network) (cac.Controller, error) { return facs.New() },
		ActiveCalls:   40,
		Requests:      150,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Decisions {
		if res.Decisions[i] != exact.Decisions[i] {
			t.Fatalf("request %d: compiled %v, exact %v", i, res.Decisions[i], exact.Decisions[i])
		}
	}
}
