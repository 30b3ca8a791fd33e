package pager

import "testing"

func TestDiskAllocateReadWrite(t *testing.T) {
	d := NewDisk()
	id := d.Allocate()
	if d.NumPages() != 1 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
	buf := make([]byte, PageSize)
	buf[0], buf[PageSize-1] = 0xAB, 0xCD
	if err := d.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, PageSize)
	if err := d.Read(id, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAB || out[PageSize-1] != 0xCD {
		t.Fatal("read back wrong bytes")
	}
	if d.Reads() != 1 || d.Writes() != 1 {
		t.Fatalf("counters: reads=%d writes=%d", d.Reads(), d.Writes())
	}
	if err := d.Read(PageID(99), out); err == nil {
		t.Fatal("read of unallocated page succeeded")
	}
	if err := d.Write(PageID(99), buf); err == nil {
		t.Fatal("write of unallocated page succeeded")
	}
}
