package prof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestDisabledIsNoop(t *testing.T) {
	stop, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestCapturesWriteFiles(t *testing.T) {
	dir := t.TempDir()
	c := Config{
		CPUProfile: filepath.Join(dir, "cpu.out"),
		MemProfile: filepath.Join(dir, "mem.out"),
		Trace:      filepath.Join(dir, "trace.out"),
	}
	stop, err := Start(c)
	if err != nil {
		t.Fatal(err)
	}
	// Generate some work so the captures have content.
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i % 7
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{c.CPUProfile, c.MemProfile, c.Trace} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

func TestBadPathFailsCleanly(t *testing.T) {
	if _, err := Start(Config{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "x")}); err == nil {
		t.Fatal("unwritable cpu profile path should error")
	}
	if _, err := Start(Config{Trace: filepath.Join(t.TempDir(), "no", "such", "dir", "x")}); err == nil {
		t.Fatal("unwritable trace path should error")
	}
}
