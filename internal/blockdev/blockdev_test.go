package blockdev

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func newDev(t *testing.T) *Device {
	t.Helper()
	d, err := New("nvme0n1", 1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 0, 4096); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := New("x", 1000, 4096); err == nil {
		t.Fatal("misaligned capacity accepted")
	}
	if _, err := New("x", 4096, 0); err == nil {
		t.Fatal("zero block accepted")
	}
}

func TestReadUnwrittenIsZero(t *testing.T) {
	d := newDev(t)
	p := make([]byte, 100)
	for i := range p {
		p[i] = 0xFF
	}
	if _, err := d.ReadAt(p, 12345); err != nil {
		t.Fatal(err)
	}
	for _, b := range p {
		if b != 0 {
			t.Fatal("unwritten region not zero")
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newDev(t)
	data := make([]byte, 10000) // spans multiple blocks, unaligned
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := d.WriteAt(data, 1234); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, 1234); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestOutOfRange(t *testing.T) {
	d := newDev(t)
	if _, err := d.WriteAt(make([]byte, 10), d.Capacity()-5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("got %v", err)
	}
	if _, err := d.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestRemove(t *testing.T) {
	d := newDev(t)
	if _, err := d.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	d.Remove()
	if !d.Removed() {
		t.Fatal("Removed() false")
	}
	if _, err := d.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrRemoved) {
		t.Fatalf("read after remove: %v", err)
	}
	if _, err := d.WriteAt([]byte{1}, 0); !errors.Is(err, ErrRemoved) {
		t.Fatalf("write after remove: %v", err)
	}
	if err := d.AccountWrite(10); !errors.Is(err, ErrRemoved) {
		t.Fatalf("account after remove: %v", err)
	}
}

func TestStats(t *testing.T) {
	d := newDev(t)
	_, _ = d.WriteAt(make([]byte, 100), 0)
	_, _ = d.ReadAt(make([]byte, 40), 0)
	_ = d.AccountWrite(1000)
	_ = d.AccountRead(2000)
	s := d.Snapshot()
	if s.WriteOps != 2 || s.WriteBytes != 1100 {
		t.Fatalf("writes: %+v", s)
	}
	if s.ReadOps != 2 || s.ReadBytes != 2040 {
		t.Fatalf("reads: %+v", s)
	}
}

func TestUsedCountsWholeBlocks(t *testing.T) {
	d := newDev(t)
	_, _ = d.WriteAt([]byte{1}, 0) // one byte allocates one block
	if d.Used() != 4096 {
		t.Fatalf("Used = %d", d.Used())
	}
	_, _ = d.WriteAt([]byte{1}, 4096*3) // new block
	if d.Used() != 8192 {
		t.Fatalf("Used = %d", d.Used())
	}
	_, _ = d.WriteAt([]byte{2}, 1) // same block as first
	if d.Used() != 8192 {
		t.Fatalf("Used = %d", d.Used())
	}
}

func TestTrim(t *testing.T) {
	d := newDev(t)
	_, _ = d.WriteAt(make([]byte, 4096*4), 0)
	if d.Used() != 4096*4 {
		t.Fatal("setup")
	}
	// Trim covering blocks 1 and 2 entirely, block 0 and 3 partially.
	if err := d.Trim(100, 4096*3); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 4096*2 {
		t.Fatalf("Used after trim = %d", d.Used())
	}
	if d.Snapshot().TrimOps != 1 {
		t.Fatal("trim not counted")
	}
}

func TestQuickSparseEquivalence(t *testing.T) {
	// Property: the device behaves like a flat byte array.
	d := newDev(t)
	shadow := make([]byte, d.Capacity())
	f := func(offRaw uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 8192 {
			data = data[:8192]
		}
		off := int64(offRaw) % (d.Capacity() - int64(len(data)))
		if _, err := d.WriteAt(data, off); err != nil {
			return false
		}
		copy(shadow[off:], data)
		got := make([]byte, len(data)+64)
		readOff := off - 32
		if readOff < 0 {
			readOff = 0
		}
		if readOff+int64(len(got)) > d.Capacity() {
			got = got[:d.Capacity()-readOff]
		}
		if _, err := d.ReadAt(got, readOff); err != nil {
			return false
		}
		return bytes.Equal(got, shadow[readOff:readOff+int64(len(got))])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
