package fix

import (
	"io"

	"facs/internal/snap"
)

// Track round-trips through a package-level EncodeX/DecodeX pair: an
// optional section behind a flag, an early error return the sequence
// comparison must drop, and the decoded value returned ahead of a nil
// error on the kept path.
type Track struct {
	Name  string
	Nodes []float64
	Errs  []float64
}

func EncodeTrack(w io.Writer, t *Track) error {
	e := snap.NewEncoder(w, "track", 0)
	e.Str(t.Name)
	e.F64s(t.Nodes)
	e.Bool(t.Errs != nil)
	if t.Errs != nil {
		e.U32(uint32(len(t.Errs)))
		e.F64s(t.Errs)
	}
	return e.Close()
}

func DecodeTrack(r io.Reader) (*Track, error) {
	d, err := snap.NewDecoder(r, "track", 0)
	if err != nil {
		return nil, err
	}
	t := &Track{Name: d.Str(), Nodes: d.F64s()}
	if len(t.Nodes) < 2 {
		d.Fail("%d nodes", len(t.Nodes))
	}
	if d.Bool() {
		_ = d.U32()
		t.Errs = d.F64s()
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return t, nil
}

// Label's decoder reads its two fields in the opposite order.
type Label struct {
	Text string
	Gen  uint32
}

func EncodeLabel(w io.Writer, l Label) error {
	e := snap.NewEncoder(w, "label", 0)
	e.Str(l.Text)
	e.U32(l.Gen)
	return e.Close()
}

func DecodeLabel(r io.Reader) (Label, error) { // want `snapsym: DecodeLabel does not mirror EncodeLabel: write path \[Str U32\] has no matching read path; read path \[U32 Str\] has no matching write path`
	d, err := snap.NewDecoder(r, "label", 0)
	if err != nil {
		return Label{}, err
	}
	l := Label{Gen: d.U32(), Text: d.Str()}
	return l, d.Close()
}
