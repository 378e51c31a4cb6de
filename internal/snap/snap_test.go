package snap

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// encodeSample writes a representative blob exercising every encoder
// primitive.
func encodeSample(t *testing.T, kind string, configHash uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := NewEncoder(&buf, kind, configHash)
	e.U8(7)
	e.Bool(true)
	e.U32(1234)
	e.U64(1 << 40)
	e.I64(-5)
	e.Int(-42)
	e.F64(3.5)
	e.Str("hello")
	e.F64s([]float64{1, -0.0, 2.25})
	var inner bytes.Buffer
	ie := NewEncoder(&inner, "inner", 99)
	ie.U32(1)
	if err := ie.Close(); err != nil {
		t.Fatalf("inner Close: %v", err)
	}
	e.Blob(inner.Bytes())
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	blob := encodeSample(t, "sample", 0xabc)
	d, err := NewDecoder(bytes.NewReader(blob), "sample", 0xabc)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d, want 7", got)
	}
	if got := d.Bool(); !got {
		t.Errorf("Bool = false, want true")
	}
	if got := d.U32(); got != 1234 {
		t.Errorf("U32 = %d, want 1234", got)
	}
	if got := d.U64(); got != 1<<40 {
		t.Errorf("U64 = %d, want %d", got, uint64(1)<<40)
	}
	if got := d.I64(); got != -5 {
		t.Errorf("I64 = %d, want -5", got)
	}
	if got := d.Int(); got != -42 {
		t.Errorf("Int = %d, want -42", got)
	}
	if got := d.F64(); got != 3.5 {
		t.Errorf("F64 = %v, want 3.5", got)
	}
	if got := d.Str(); got != "hello" {
		t.Errorf("Str = %q, want hello", got)
	}
	fs := d.F64s()
	if len(fs) != 3 || fs[0] != 1 || fs[1] != 0 || fs[2] != 2.25 {
		t.Errorf("F64s = %v", fs)
	}
	inner := d.Blob()
	id, err := NewDecoder(bytes.NewReader(inner), "inner", 99)
	if err != nil {
		t.Fatalf("inner NewDecoder: %v", err)
	}
	if got := id.U32(); got != 1 {
		t.Errorf("inner U32 = %d, want 1", got)
	}
	if err := id.Close(); err != nil {
		t.Errorf("inner Close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestDecoderStaleOnMismatch(t *testing.T) {
	blob := encodeSample(t, "sample", 0xabc)
	if _, err := NewDecoder(bytes.NewReader(blob), "other", 0xabc); !errors.Is(err, ErrSnapshotStale) {
		t.Errorf("kind mismatch: err = %v, want ErrSnapshotStale", err)
	}
	if _, err := NewDecoder(bytes.NewReader(blob), "sample", 0xdef); !errors.Is(err, ErrSnapshotStale) {
		t.Errorf("config mismatch: err = %v, want ErrSnapshotStale", err)
	}
	// A bumped version byte is stale, not corrupt — but flipping it also
	// breaks the checksum, so patch the checksum too.
	mut := append([]byte(nil), blob...)
	mut[4]++ // version LSB
	mut = fixChecksum(mut)
	if _, err := NewDecoder(bytes.NewReader(mut), "sample", 0xabc); !errors.Is(err, ErrSnapshotStale) {
		t.Errorf("version mismatch: err = %v, want ErrSnapshotStale", err)
	}
}

// fixChecksum recomputes the trailing FNV-64a over the payload.
func fixChecksum(blob []byte) []byte {
	payload := blob[:len(blob)-8]
	h := NewHasher()
	for _, b := range payload {
		h.byte(b)
	}
	// NewHasher is the same FNV-64a fold the encoder's hash.Hash64 uses.
	var out [8]byte
	for i := range out {
		out[i] = byte(h.sum >> (8 * i))
	}
	return append(payload, out[:]...)
}

func TestDecoderCorruptOnDamage(t *testing.T) {
	blob := encodeSample(t, "sample", 0xabc)
	cases := map[string][]byte{
		"empty":      {},
		"short":      blob[:10],
		"truncated":  blob[:len(blob)-3],
		"no-sum":     blob[:len(blob)-8],
		"bit-flip":   flipBit(blob, len(blob)/2),
		"bad-magic":  fixChecksum(flipBit(blob, 0)),
		"trailing":   append(append([]byte(nil), blob...), 0xff),
		"first-byte": flipBit(blob, 5),
	}
	for name, mut := range cases {
		if _, err := NewDecoder(bytes.NewReader(mut), "sample", 0xabc); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

func flipBit(blob []byte, i int) []byte {
	mut := append([]byte(nil), blob...)
	mut[i] ^= 0x40
	return mut
}

func TestDecoderLatchesTruncation(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "k", 1)
	e.U32(5) // payload: one u32
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()), "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	d.U32() // consumes the payload
	if v := d.U64(); v != 0 {
		t.Errorf("over-read U64 = %d, want 0", v)
	}
	if got := d.Str(); got != "" {
		t.Errorf("over-read Str = %q, want empty", got)
	}
	if err := d.Err(); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("Err = %v, want ErrSnapshotCorrupt", err)
	}
	if err := d.Close(); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("Close = %v, want ErrSnapshotCorrupt", err)
	}
}

func TestDecoderTrailingPayload(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "k", 1)
	e.U32(5)
	e.U32(6)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()), "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	d.U32() // leave one u32 unread
	if err := d.Close(); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("Close = %v, want ErrSnapshotCorrupt for unread payload", err)
	}
}

func TestDecoderFail(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf, "k", 1)
	e.Int(-1)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()), "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Int(); n < 0 {
		d.Fail("negative count %d", n)
	}
	if err := d.Close(); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("Close = %v, want ErrSnapshotCorrupt from Fail", err)
	}
}

func TestHasherDistinguishes(t *testing.T) {
	a := NewHasher().U64(1).Str("x").Bool(true).F64(2.5).Sum()
	b := NewHasher().U64(1).Str("x").Bool(false).F64(2.5).Sum()
	c := NewHasher().U64(1).Str("y").Bool(true).F64(2.5).Sum()
	if a == b || a == c || b == c {
		t.Errorf("hash collisions: %#x %#x %#x", a, b, c)
	}
	if again := NewHasher().U64(1).Str("x").Bool(true).F64(2.5).Sum(); again != a {
		t.Errorf("hash not deterministic: %#x vs %#x", again, a)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	blob := encodeSample(t, "sample", 1)
	n, err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
	if err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if n != int64(len(blob)) {
		t.Errorf("size = %d, want %d", n, len(blob))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Errorf("file content mismatch: %d vs %d bytes", len(got), len(blob))
	}
	// A failed write must leave the previous snapshot intact and no
	// temp files behind.
	if _, err := WriteFileAtomic(path, func(io.Writer) error {
		return errors.New("boom")
	}); err == nil {
		t.Fatalf("WriteFileAtomic did not propagate the write error")
	}
	got, err = os.ReadFile(path)
	if err != nil || !bytes.Equal(got, blob) {
		t.Errorf("failed write damaged the previous snapshot (err %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want only the snapshot", len(entries))
	}

	// A failed rename (the destination is a non-empty directory) must
	// return the error, remove the temp file and leave the directory
	// as it was.
	busy := filepath.Join(dir, "busy.snap")
	if err := os.Mkdir(busy, 0o755); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(busy, "keep")
	if err := os.WriteFile(keep, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFileAtomic(busy, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	}); err == nil {
		t.Fatal("WriteFileAtomic over a non-empty directory did not fail")
	}
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp-*")); err != nil || len(tmps) != 0 {
		t.Errorf("failed rename left temp files %v (err %v)", tmps, err)
	}
	inside, err := os.ReadDir(busy)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(keep); len(inside) != 1 || err != nil || string(got) != "keep" {
		t.Errorf("failed rename changed the destination directory: %d entries, keep = %q (err %v)", len(inside), got, err)
	}
}
