package blockdev

import "testing"

// TestForkCopyOnWriteIsolation: I/O charged to one fork shows in neither
// its parent nor its sibling.
func TestForkCopyOnWriteIsolation(t *testing.T) {
	d := newDev(t)
	_ = d.AccountWrite(8192)
	f1, f2 := d.Fork(), d.Fork()

	_ = f1.AccountWrite(1)
	_ = f2.AccountRead(4096)

	if got, want := f1.Snapshot(), (Stats{WriteOps: 2, WriteBytes: 8193}); got != want {
		t.Fatalf("f1 %+v, want %+v", got, want)
	}
	if got, want := f2.Snapshot(), (Stats{ReadOps: 1, ReadBytes: 4096, WriteOps: 1, WriteBytes: 8192}); got != want {
		t.Fatalf("f2 %+v, want %+v", got, want)
	}
	if got, want := d.Snapshot(), (Stats{WriteOps: 1, WriteBytes: 8192}); got != want {
		t.Fatalf("parent %+v, want %+v: a fork's I/O leaked", got, want)
	}
}

// TestForkOfForkIsolation: a fork and a fork of that fork each keep the
// counters they were taken with while the parent, the fork and a sibling
// go on charging I/O and removing.
func TestForkOfForkIsolation(t *testing.T) {
	d := newDev(t)
	_ = d.AccountWrite(3 * 4096)
	f := d.Fork()
	_ = f.AccountWrite(1)
	ff, sibling := f.Fork(), d.Fork()

	// Every later mutation lands on someone else.
	_ = d.AccountWrite(1)
	_ = f.AccountRead(4096)
	_ = sibling.AccountWrite(1)
	sibling.Remove()

	if got, want := ff.Snapshot(), (Stats{WriteOps: 2, WriteBytes: 3*4096 + 1}); got != want || ff.Removed() {
		t.Fatalf("fork of fork %+v removed %v, want %+v", got, ff.Removed(), want)
	}
	if got, want := f.Snapshot(), (Stats{ReadOps: 1, ReadBytes: 4096, WriteOps: 2, WriteBytes: 3*4096 + 1}); got != want {
		t.Fatalf("fork %+v, want %+v", got, want)
	}
	if !sibling.Fork().Removed() {
		t.Fatal("a removed device must fork to a removed device")
	}
}

func TestForkUsedAndStats(t *testing.T) {
	d := newDev(t)
	_ = d.AccountWrite(8192)
	f := d.Fork()
	if f.Snapshot() != d.Snapshot() || f.Capacity() != d.Capacity() {
		t.Fatalf("fork %+v of %d bytes != parent %+v of %d", f.Snapshot(), f.Capacity(), d.Snapshot(), d.Capacity())
	}
}

func TestForkRemoveIndependent(t *testing.T) {
	d := newDev(t)
	f := d.Fork()
	f.Remove()
	if !f.Removed() {
		t.Fatal("fork not removed")
	}
	if d.Removed() || d.AccountRead(5) != nil {
		t.Fatal("parent affected by fork removal")
	}
}
