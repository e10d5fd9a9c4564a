package blockdev

import (
	"errors"
	"testing"
)

func newDev(t *testing.T) *Device {
	t.Helper()
	d, err := New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	for _, capacity := range []int64{0, -4096} {
		if _, err := New(capacity); !errors.Is(err, ErrInvalidArgs) {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
	}
	if d := newDev(t); d.Capacity() != 1<<20 {
		t.Fatalf("Capacity = %d", d.Capacity())
	}
}

func TestRemove(t *testing.T) {
	d := newDev(t)
	if err := d.AccountWrite(1); err != nil {
		t.Fatal(err)
	}
	d.Remove()
	if !d.Removed() {
		t.Fatal("Removed() false")
	}
	if err := d.AccountRead(1); !errors.Is(err, ErrRemoved) {
		t.Fatalf("read after remove: %v", err)
	}
	if err := d.AccountWrite(10); !errors.Is(err, ErrRemoved) {
		t.Fatalf("write after remove: %v", err)
	}
	if err := d.AccountWrites(10, 2); !errors.Is(err, ErrRemoved) {
		t.Fatalf("bulk write after remove: %v", err)
	}
	if s := d.Snapshot(); s != (Stats{WriteOps: 1, WriteBytes: 1}) {
		t.Fatalf("refused I/O counted: %+v", s)
	}
}

func TestStats(t *testing.T) {
	d := newDev(t)
	_ = d.AccountWrite(100)
	_ = d.AccountRead(40)
	_ = d.AccountWrites(1000, 3)
	_ = d.AccountRead(2000)
	s := d.Snapshot()
	if s.WriteOps != 4 || s.WriteBytes != 1100 {
		t.Fatalf("writes: %+v", s)
	}
	if s.ReadOps != 2 || s.ReadBytes != 2040 {
		t.Fatalf("reads: %+v", s)
	}
}
