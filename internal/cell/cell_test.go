package cell

import (
	"errors"
	"strings"
	"testing"

	"facs/internal/geo"
	"facs/internal/traffic"
)

func newBS(t *testing.T, capacity int) *BaseStation {
	t.Helper()
	bs, err := NewBaseStation(geo.Hex{Q: 0, R: 0}, geo.Point{}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func TestNewBaseStationValidation(t *testing.T) {
	if _, err := NewBaseStation(geo.Hex{}, geo.Point{}, 0); err == nil {
		t.Fatal("zero capacity should error")
	}
	if _, err := NewBaseStation(geo.Hex{}, geo.Point{}, -5); err == nil {
		t.Fatal("negative capacity should error")
	}
	bs := newBS(t, DefaultCapacityBU)
	if bs.Capacity() != 40 {
		t.Fatalf("Capacity = %d, want 40", bs.Capacity())
	}
	if bs.Used() != 0 || bs.Free() != 40 || bs.Occupancy() != 0 {
		t.Fatal("fresh station should be empty")
	}
}

func TestAdmitReleaseLedger(t *testing.T) {
	bs := newBS(t, 40)
	calls := []Call{
		{ID: 1, Class: traffic.Video, BU: 10, AdmittedAt: 1},
		{ID: 2, Class: traffic.Voice, BU: 5, AdmittedAt: 2},
		{ID: 3, Class: traffic.Text, BU: 1, AdmittedAt: 3},
	}
	for _, c := range calls {
		if err := bs.Admit(c); err != nil {
			t.Fatal(err)
		}
	}
	if bs.Used() != 16 || bs.Free() != 24 {
		t.Fatalf("Used/Free = %d/%d, want 16/24", bs.Used(), bs.Free())
	}
	if bs.RTC() != 15 {
		t.Fatalf("RTC = %d, want 15 (video 10 + voice 5)", bs.RTC())
	}
	if bs.NRTC() != 1 {
		t.Fatalf("NRTC = %d, want 1 (text)", bs.NRTC())
	}
	if bs.NumCalls() != 3 {
		t.Fatalf("NumCalls = %d, want 3", bs.NumCalls())
	}
	if got := bs.Occupancy(); got != 0.4 {
		t.Fatalf("Occupancy = %v, want 0.4", got)
	}

	released, err := bs.Release(2)
	if err != nil {
		t.Fatal(err)
	}
	if released.Class != traffic.Voice || released.BU != 5 {
		t.Fatalf("released wrong call: %+v", released)
	}
	if bs.RTC() != 10 || bs.Used() != 11 {
		t.Fatalf("after release RTC=%d Used=%d, want 10/11", bs.RTC(), bs.Used())
	}
}

func TestAdmitErrors(t *testing.T) {
	bs := newBS(t, 10)
	if err := bs.Admit(Call{ID: 1, Class: traffic.Video, BU: 10}); err != nil {
		t.Fatal(err)
	}
	err := bs.Admit(Call{ID: 2, Class: traffic.Text, BU: 1})
	if !errors.Is(err, ErrInsufficientBandwidth) {
		t.Fatalf("err = %v, want ErrInsufficientBandwidth", err)
	}
	err = bs.Admit(Call{ID: 1, Class: traffic.Text, BU: 1})
	if !errors.Is(err, ErrDuplicateCall) {
		t.Fatalf("err = %v, want ErrDuplicateCall", err)
	}
	if err := bs.Admit(Call{ID: 3, Class: traffic.Text, BU: 0}); err == nil {
		t.Fatal("zero BU should error")
	}
	if err := bs.Admit(Call{ID: 4, Class: traffic.Class(42), BU: 1}); err == nil {
		t.Fatal("invalid class should error")
	}
	// Failed admits must not corrupt the ledger.
	if bs.Used() != 10 || bs.NumCalls() != 1 {
		t.Fatalf("ledger corrupted: used=%d calls=%d", bs.Used(), bs.NumCalls())
	}
}

func TestReleaseUnknown(t *testing.T) {
	bs := newBS(t, 10)
	if _, err := bs.Release(99); !errors.Is(err, ErrUnknownCall) {
		t.Fatalf("err = %v, want ErrUnknownCall", err)
	}
}

func TestFits(t *testing.T) {
	bs := newBS(t, 10)
	if !bs.Fits(10) || !bs.Fits(1) {
		t.Fatal("empty station should fit up to capacity")
	}
	if bs.Fits(11) || bs.Fits(-1) {
		t.Fatal("Fits accepted invalid sizes")
	}
}

func TestFitsAgreesWithAdmitOnDegenerateBU(t *testing.T) {
	// Regression: Fits(0) used to return true while Admit rejected BU <= 0,
	// so pre-checked admissions of degenerate requests still failed.
	bs := newBS(t, 10)
	for _, bu := range []int{0, -1, -10} {
		if bs.Fits(bu) {
			t.Fatalf("Fits(%d) = true, but Admit rejects BU <= 0", bu)
		}
		if err := bs.Admit(Call{ID: 100 + bu, Class: traffic.Text, BU: bu}); err == nil {
			t.Fatalf("Admit accepted BU %d", bu)
		}
	}
}

func TestCallLookupAndCopy(t *testing.T) {
	bs := newBS(t, 40)
	if err := bs.Admit(Call{ID: 7, Class: traffic.Voice, BU: 5}); err != nil {
		t.Fatal(err)
	}
	if err := bs.Admit(Call{ID: 3, Class: traffic.Text, BU: 1}); err != nil {
		t.Fatal(err)
	}
	c, ok := bs.Call(7)
	if !ok || c.Class != traffic.Voice {
		t.Fatalf("Call(7) = %+v,%v", c, ok)
	}
	if _, ok := bs.Call(8); ok {
		t.Fatal("Call(8) should be absent")
	}
	list := bs.Calls()
	if len(list) != 2 || list[0].ID != 3 || list[1].ID != 7 {
		t.Fatalf("Calls() = %+v, want sorted by ID", list)
	}
}

func TestBaseStationString(t *testing.T) {
	bs := newBS(t, 40)
	if err := bs.Admit(Call{ID: 1, Class: traffic.Voice, BU: 5}); err != nil {
		t.Fatal(err)
	}
	s := bs.String()
	if !strings.Contains(s, "5/40") || !strings.Contains(s, "RTC=5") {
		t.Fatalf("String = %q", s)
	}
}

func TestLedgerConservationUnderChurn(t *testing.T) {
	// Admit/release churn must always keep Used == sum of carried calls
	// and RTC/NRTC consistent with the class split.
	bs := newBS(t, 40)
	next := 0
	for round := 0; round < 200; round++ {
		class := traffic.Classes()[round%3]
		c := Call{ID: next, Class: class, BU: class.BandwidthUnits()}
		next++
		if err := bs.Admit(c); err != nil {
			// Full: drop the oldest call and retry once.
			calls := bs.Calls()
			if len(calls) == 0 {
				t.Fatal("admit failed on empty station")
			}
			if _, err := bs.Release(calls[0].ID); err != nil {
				t.Fatal(err)
			}
			if err := bs.Admit(c); err != nil {
				continue // still may not fit (e.g. video into 9 free)
			}
		}
		var wantRT, wantNRT int
		for _, c := range bs.Calls() {
			if c.Class.RealTime() {
				wantRT += c.BU
			} else {
				wantNRT += c.BU
			}
		}
		if bs.RTC() != wantRT || bs.NRTC() != wantNRT {
			t.Fatalf("round %d: counters RTC=%d NRTC=%d, want %d/%d",
				round, bs.RTC(), bs.NRTC(), wantRT, wantNRT)
		}
		if bs.Used() > bs.Capacity() {
			t.Fatalf("round %d: overcommitted %d/%d", round, bs.Used(), bs.Capacity())
		}
	}
}
