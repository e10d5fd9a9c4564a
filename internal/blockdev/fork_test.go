package blockdev

import (
	"bytes"
	"testing"
)

// readByte reads one byte of dev at off.
func readByte(t *testing.T, dev *Device, off int64) byte {
	t.Helper()
	b := make([]byte, 1)
	if _, err := dev.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	return b[0]
}

func TestForkCopyOnWriteIsolation(t *testing.T) {
	d, _ := New("dev", 1<<20, 4096)
	if _, err := d.WriteAt(bytes.Repeat([]byte{0xAA}, 8192), 0); err != nil {
		t.Fatal(err)
	}
	f1, f2 := d.Fork(), d.Fork()

	// f1 overwrites part of a shared block; f2 trims the other block.
	if _, err := f1.WriteAt([]byte{0xBB}, 100); err != nil {
		t.Fatal(err)
	}
	if err := f2.Trim(4096, 4096); err != nil {
		t.Fatal(err)
	}

	if got := readByte(t, f1, 100); got != 0xBB {
		t.Fatalf("f1[100]=%x", got)
	}
	if got := readByte(t, d, 100); got != 0xAA {
		t.Fatalf("parent[100]=%x, fork write leaked", got)
	}
	if got := readByte(t, f2, 100); got != 0xAA {
		t.Fatalf("f2[100]=%x, sibling write leaked", got)
	}
	if got := readByte(t, f2, 5000); got != 0 {
		t.Fatalf("f2[5000]=%x after trim", got)
	}
	if got := readByte(t, d, 5000); got != 0xAA {
		t.Fatalf("parent[5000]=%x, fork trim leaked", got)
	}
	if got := readByte(t, f1, 101); got != 0xAA {
		t.Fatalf("f1[101]=%x, partial write lost the block's other bytes", got)
	}
}

// TestForkOfForkIsolation: a fork and a fork of that fork each keep the
// contents they were taken with while the parent, the fork and a sibling
// go on writing, trimming and removing.
func TestForkOfForkIsolation(t *testing.T) {
	d, _ := New("dev", 1<<20, 4096)
	if _, err := d.WriteAt(bytes.Repeat([]byte{1}, 3*4096), 0); err != nil {
		t.Fatal(err)
	}
	f := d.Fork()
	if _, err := f.WriteAt([]byte{2}, 4096); err != nil {
		t.Fatal(err)
	}
	ff, sibling := f.Fork(), d.Fork()

	// Every later mutation lands on someone else.
	if _, err := d.WriteAt([]byte{9}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Trim(8192, 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{8}, 4096); err != nil {
		t.Fatal(err)
	}
	if err := f.Trim(0, 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := sibling.WriteAt([]byte{7}, 8192); err != nil {
		t.Fatal(err)
	}
	sibling.Remove()

	for off, want := range map[int64]byte{0: 1, 4096: 2, 8192: 1} {
		if got := readByte(t, ff, off); got != want {
			t.Fatalf("fork of fork [%d]=%d, want %d", off, got, want)
		}
	}
	for off, want := range map[int64]byte{0: 0, 4096: 8, 8192: 1} {
		if got := readByte(t, f, off); got != want {
			t.Fatalf("fork [%d]=%d, want %d", off, got, want)
		}
	}
	if ff.Used() != 3*4096 || f.Used() != 2*4096 || d.Used() != 2*4096 {
		t.Fatalf("Used: fork of fork %d, fork %d, parent %d", ff.Used(), f.Used(), d.Used())
	}
	if !sibling.Fork().Removed() {
		t.Fatal("a removed device must fork to a removed device")
	}
}

func TestForkUsedAndStats(t *testing.T) {
	d, _ := New("dev", 1<<20, 4096)
	if _, err := d.WriteAt(make([]byte, 8192), 0); err != nil {
		t.Fatal(err)
	}
	f := d.Fork()
	if f.Used() != d.Used() {
		t.Fatalf("fork Used %d != parent %d", f.Used(), d.Used())
	}
	if f.Snapshot() != d.Snapshot() {
		t.Fatalf("fork stats %+v != parent %+v", f.Snapshot(), d.Snapshot())
	}
	// Overwriting a shared block must not double-count it.
	if _, err := f.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if f.Used() != d.Used() {
		t.Fatalf("fork Used %d != parent %d after overwrite", f.Used(), d.Used())
	}
	// Trimming a shared block shrinks only the fork.
	if err := f.Trim(4096, 4096); err != nil {
		t.Fatal(err)
	}
	if f.Used() != d.Used()-4096 {
		t.Fatalf("fork Used %d after trim, parent %d", f.Used(), d.Used())
	}
}

func TestForkRemoveIndependent(t *testing.T) {
	d, _ := New("dev", 1<<20, 4096)
	if _, err := d.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	f := d.Fork()
	f.Remove()
	if !f.Removed() {
		t.Fatal("fork not removed")
	}
	buf := make([]byte, 5)
	if _, err := d.ReadAt(buf, 0); err != nil || string(buf) != "hello" {
		t.Fatalf("parent affected by fork removal: %q %v", buf, err)
	}
}
