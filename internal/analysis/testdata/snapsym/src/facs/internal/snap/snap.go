// Package snap is a hermetic stub of the real facs/internal/snap
// envelope codec — just enough method surface for the snapsym
// fixtures, so the testdata tree needs nothing from the module proper.
package snap

import "io"

// NewEncoder mirrors the real envelope constructor.
func NewEncoder(w io.Writer, kind string, configHash uint64) *Encoder { return &Encoder{} }

// NewDecoder mirrors the real envelope constructor.
func NewDecoder(r io.Reader, kind string, configHash uint64) (*Decoder, error) {
	return &Decoder{}, nil
}

// Encoder mirrors the payload-write surface of the real encoder.
type Encoder struct{ n int }

func (e *Encoder) U8(v uint8)       { e.n++ }
func (e *Encoder) Bool(v bool)      { e.n++ }
func (e *Encoder) U32(v uint32)     { e.n++ }
func (e *Encoder) U64(v uint64)     { e.n++ }
func (e *Encoder) I64(v int64)      { e.n++ }
func (e *Encoder) Int(v int)        { e.n++ }
func (e *Encoder) F64(v float64)    { e.n++ }
func (e *Encoder) Str(v string)     { e.n++ }
func (e *Encoder) F64s(v []float64) { e.n++ }
func (e *Encoder) Blob(v []byte)    { e.n++ }
func (e *Encoder) Close() error     { return nil }

// Decoder mirrors the payload-read surface of the real decoder.
type Decoder struct{ n int }

func (d *Decoder) U8() uint8                       { d.n++; return 0 }
func (d *Decoder) Bool() bool                      { d.n++; return false }
func (d *Decoder) U32() uint32                     { d.n++; return 0 }
func (d *Decoder) U64() uint64                     { d.n++; return 0 }
func (d *Decoder) I64() int64                      { d.n++; return 0 }
func (d *Decoder) Int() int                        { d.n++; return 0 }
func (d *Decoder) F64() float64                    { d.n++; return 0 }
func (d *Decoder) Str() string                     { d.n++; return "" }
func (d *Decoder) F64s() []float64                 { d.n++; return nil }
func (d *Decoder) Blob() []byte                    { d.n++; return nil }
func (d *Decoder) Err() error                      { return nil }
func (d *Decoder) Close() error                    { return nil }
func (d *Decoder) Fail(format string, args ...any) {}
