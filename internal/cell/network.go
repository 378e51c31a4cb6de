package cell

import (
	"errors"
	"fmt"
	"sort"

	"facs/internal/geo"
)

// ErrOutsideCoverage reports a position outside every cell of the network.
var ErrOutsideCoverage = errors.New("cell: position outside network coverage")

// NetworkConfig parameterises a hexagonal cellular deployment.
type NetworkConfig struct {
	// Rings is the number of hex rings around the centre cell; 0 yields a
	// single-cell network.
	Rings int
	// CellRadiusM is the centre-to-corner cell radius in metres.
	// Default 2000 m.
	CellRadiusM float64
	// CapacityBU is the per-station bandwidth. Default DefaultCapacityBU.
	CapacityBU int
}

func (c NetworkConfig) withDefaults() NetworkConfig {
	if c.CellRadiusM == 0 {
		c.CellRadiusM = 2000
	}
	if c.CapacityBU == 0 {
		c.CapacityBU = DefaultCapacityBU
	}
	return c
}

// Validate checks the configuration.
func (c NetworkConfig) Validate() error {
	if c.Rings < 0 {
		return fmt.Errorf("cell: rings must be >= 0, got %d", c.Rings)
	}
	if c.CellRadiusM <= 0 {
		return fmt.Errorf("cell: cell radius must be > 0, got %v", c.CellRadiusM)
	}
	if c.CapacityBU <= 0 {
		return fmt.Errorf("cell: capacity must be > 0, got %d", c.CapacityBU)
	}
	return nil
}

// Network is a hexagonal deployment of base stations sharing a layout.
type Network struct {
	layout   geo.Layout
	stations map[geo.Hex]*BaseStation
	order    []geo.Hex // deterministic iteration order
}

// NewNetwork builds a network of 1+3·r·(r+1) cells arranged in r rings
// around hex (0,0), whose centre sits at the plane origin.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layout, err := geo.NewLayout(cfg.CellRadiusM, geo.Point{})
	if err != nil {
		return nil, err
	}
	n := &Network{
		layout:   layout,
		stations: make(map[geo.Hex]*BaseStation),
	}
	for _, h := range (geo.Hex{}).Spiral(cfg.Rings) {
		bs, err := NewBaseStation(h, layout.Center(h), cfg.CapacityBU)
		if err != nil {
			return nil, err
		}
		n.stations[h] = bs
		n.order = append(n.order, h)
	}
	sort.Slice(n.order, func(i, j int) bool {
		if n.order[i].Q != n.order[j].Q {
			return n.order[i].Q < n.order[j].Q
		}
		return n.order[i].R < n.order[j].R
	})
	return n, nil
}

// Layout returns the hex/plane conversion used by the network.
func (n *Network) Layout() geo.Layout { return n.layout }

// NumCells returns the number of base stations.
func (n *Network) NumCells() int { return len(n.stations) }

// At returns the station at hex h, or false if the hex is outside the
// deployment.
func (n *Network) At(h geo.Hex) (*BaseStation, bool) {
	bs, ok := n.stations[h]
	return bs, ok
}

// StationAt returns the station whose cell contains plane position p.
func (n *Network) StationAt(p geo.Point) (*BaseStation, error) {
	h := n.layout.HexAt(p)
	bs, ok := n.stations[h]
	if !ok {
		return nil, fmt.Errorf("cell: %v maps to %v: %w", p, h, ErrOutsideCoverage) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	return bs, nil
}

// Neighbors returns the existing neighbouring stations of hex h in
// deterministic (direction) order.
func (n *Network) Neighbors(h geo.Hex) []*BaseStation {
	out := make([]*BaseStation, 0, 6)
	for _, nh := range h.Neighbors() {
		if bs, ok := n.stations[nh]; ok {
			out = append(out, bs)
		}
	}
	return out
}

// Stations returns all stations in deterministic (Q, R) order.
func (n *Network) Stations() []*BaseStation {
	out := make([]*BaseStation, 0, len(n.order))
	for _, h := range n.order {
		out = append(out, n.stations[h])
	}
	return out
}

// TotalUsed returns the sum of occupied BU across all stations. It
// walks the deterministic (Q, R) order rather than the station map so
// measurement sweeps touch stations in a reproducible sequence.
func (n *Network) TotalUsed() int {
	var sum int
	for _, h := range n.order {
		sum += n.stations[h].Used()
	}
	return sum
}

// TotalCapacity returns the sum of capacities across all stations.
func (n *Network) TotalCapacity() int {
	var sum int
	for _, h := range n.order {
		sum += n.stations[h].Capacity()
	}
	return sum
}

// Handoff atomically moves a carried call from one station to another:
// the target admits it first, so on any failure the source record is
// untouched. ErrInsufficientBandwidth signals a handoff drop candidate,
// ErrDuplicateCall a target (or from == to) already carrying the ID.
func (n *Network) Handoff(callID int, from, to geo.Hex, now float64) error {
	src, ok := n.stations[from]
	if !ok {
		return fmt.Errorf("cell: handoff source %v: %w", from, ErrOutsideCoverage)
	}
	dst, ok := n.stations[to]
	if !ok {
		return fmt.Errorf("cell: handoff target %v: %w", to, ErrOutsideCoverage)
	}
	c, ok := src.Call(callID)
	if !ok {
		return fmt.Errorf("cell: handoff of call %d from %v: %w", callID, from, ErrUnknownCall)
	}
	c.AdmittedAt = now
	c.Handoff = true
	if err := dst.Admit(c); err != nil {
		return fmt.Errorf("cell: handoff from %v: %w", from, err)
	}
	// Cannot fail: src carries the call, and src != dst since the admit
	// above would have reported the duplicate.
	_, err := src.Release(callID)
	return err
}
