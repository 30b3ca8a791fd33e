package pager

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestFileDiskMatchesDisk runs one random script on a FileDisk and on a
// Disk, each under a FaultDevice with the same trip: allocations, full-page
// writes that extend the buffered run, skip a page, rewrite a page still in
// the run or fill it, short writes, reads of buffered and of never-written
// pages, syncs, and a close and reopen. Every Read and every error must
// agree, the file must hold Disk's pages after every Sync, and the page the
// trip tears must read the same on both.
func TestFileDiskMatchesDisk(t *testing.T) {
	const maxPage = 256 // a run that would pass it restarts low, as reuse does
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "pages.db")
		file, err := OpenFileDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		mem := NewDisk()
		fdev, mdev := NewFaultDevice(file), NewFaultDevice(mem)
		trip := -1
		if seed%4 != 0 {
			trip = 50 + rng.Intn(500)
		}
		fdev.SetTrip(trip)
		mdev.SetTrip(trip)

		allocate := func() PageID {
			fid, mid := fdev.Allocate(), mdev.Allocate()
			if fid != mid {
				t.Fatalf("seed %d: Allocate: file %d, disk %d", seed, fid, mid)
			}
			return fid
		}
		same := func(op string, ferr, merr error) {
			t.Helper()
			if (ferr == nil) != (merr == nil) {
				t.Fatalf("seed %d: %s: file err %v, disk err %v", seed, op, ferr, merr)
			}
		}
		last := PageID(1) // the page the last full-page write went to
		write := func(id PageID, n int) {
			t.Helper()
			for mem.NumPages() <= int(id) {
				allocate()
			}
			buf := make([]byte, n)
			rng.Read(buf)
			same("Write", fdev.Write(id, buf), mdev.Write(id, buf))
			if n == PageSize {
				last = id
			}
		}
		fbuf, mbuf := make([]byte, PageSize), make([]byte, PageSize)
		read := func(id PageID) {
			t.Helper()
			ferr, merr := fdev.Read(id, fbuf), mdev.Read(id, mbuf)
			same("Read", ferr, merr)
			if ferr == nil && !bytes.Equal(fbuf, mbuf) {
				t.Fatalf("seed %d: page %d reads differently", seed, id)
			}
		}
		fileHoldsDisk := func() {
			t.Helper()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) > mem.NumPages()*PageSize {
				t.Fatalf("seed %d: file of %d bytes over %d pages", seed, len(raw), mem.NumPages())
			}
			raw = append(raw, make([]byte, mem.NumPages()*PageSize-len(raw))...)
			for i, p := range mem.pages {
				if !bytes.Equal(raw[i*PageSize:(i+1)*PageSize], p) {
					t.Fatalf("seed %d: file page %d differs from the disk's", seed, i)
				}
			}
		}
		next := func(id PageID) PageID {
			if id >= maxPage {
				return 2
			}
			return id
		}

		allocate()
		allocate()
		for step := 0; step < 600; step++ {
			switch r := rng.Intn(100); {
			case r < 4:
				allocate()
			case r < 36:
				write(next(last+1), PageSize)
			case r < 42:
				write(next(last+2), PageSize)
			case r < 48:
				write(last-PageID(rng.Intn(min(4, int(last)+1))), PageSize)
			case r < 52:
				for range runPages {
					write(next(last+1), PageSize)
				}
			case r < 56:
				write(PageID(rng.Intn(maxPage)), PageSize)
			case r < 62:
				write(PageID(rng.Intn(mem.NumPages())), PageSize/2+rng.Intn(PageSize/2)) // a trip tears it to half
			case r < 72:
				read(last)
			case r < 76:
				read(allocate())
			case r < 84:
				read(PageID(rng.Intn(mem.NumPages())))
			case r < 96:
				ferr, merr := fdev.Sync(), mdev.Sync()
				same("Sync", ferr, merr)
				if ferr == nil {
					fileHoldsDisk()
				}
			default:
				if err := file.Close(); err != nil {
					t.Fatal(err)
				}
				if file, err = OpenFileDisk(path); err != nil {
					t.Fatal(err)
				}
				for file.NumPages() < mem.NumPages() {
					file.Allocate()
				}
				fdev.inner = file
			}
		}
		if trip >= 0 && !fdev.Tripped() {
			t.Fatalf("seed %d: the script never reached trip %d", seed, trip)
		}
		// Past the trip only the torn page reached the devices; sync the
		// file itself and hold every page, the torn one included.
		if err := file.Sync(); err != nil {
			t.Fatal(err)
		}
		fileHoldsDisk()
		for id := PageID(0); int(id) < mem.NumPages(); id++ {
			read(id)
		}
		bad := PageID(mem.NumPages())
		ferr, merr := file.Read(bad, fbuf), mem.Read(bad, mbuf)
		if ferr == nil || merr == nil || ferr.Error() != merr.Error() {
			t.Fatalf("unallocated read: file %v, disk %v", ferr, merr)
		}
		ferr, merr = file.Write(bad, fbuf), mem.Write(bad, mbuf)
		if ferr == nil || merr == nil || ferr.Error() != merr.Error() {
			t.Fatalf("unallocated write: file %v, disk %v", ferr, merr)
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileDiskWriteErrorSticks closes the file under a FileDisk that holds
// a run: the call that hands the run over fails, and so does every later
// Write and Sync, so no superblock can be committed over a lost page.
func TestFileDiskWriteErrorSticks(t *testing.T) {
	page := bytes.Repeat([]byte{0x5A}, PageSize)
	for _, trigger := range []string{"write", "sync"} {
		t.Run(trigger, func(t *testing.T) {
			d, err := OpenFileDisk(filepath.Join(t.TempDir(), "pages.db"))
			if err != nil {
				t.Fatal(err)
			}
			for range 4 {
				d.Allocate()
			}
			for id := PageID(0); id < 2; id++ {
				if err := d.Write(id, page); err != nil {
					t.Fatal(err)
				}
			}
			if st, err := d.f.Stat(); err != nil || st.Size() != 0 {
				t.Fatalf("the run reached the file before its hand-over: %v %v", st.Size(), err)
			}
			d.f.Close()
			if trigger == "write" {
				err = d.Write(3, page) // skips page 2: hands the run over
			} else {
				err = d.Sync()
			}
			if err == nil {
				t.Fatalf("%s over a lost run succeeded", trigger)
			}
			for i, later := range []error{d.Sync(), d.Write(0, page), d.Write(1, page[:10]), d.Sync()} {
				if later == nil {
					t.Fatalf("later call %d succeeded after a lost run", i)
				}
			}
		})
	}

	t.Run("store", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "pages.db")
		d, err := OpenFileDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStore(d)
		first, err := s.Put(bytes.Repeat([]byte{1}, 2*BlobPayload))
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteSuper(d, Super{Epoch: 1, Manifest: first}); err != nil {
			t.Fatal(err)
		}
		second, err := s.Put(bytes.Repeat([]byte{2}, 3*BlobPayload))
		d.f.Close()
		if err == nil {
			err = WriteSuper(d, Super{Epoch: 2, Manifest: second})
		}
		if err == nil {
			t.Fatal("a superblock was committed over a lost blob page")
		}
		d2, err := OpenFileDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		if sup, ok, err := ReadSuper(d2); err != nil || !ok || sup.Epoch != 1 {
			t.Fatalf("reopened super = %+v ok=%v err=%v, want epoch 1", sup, ok, err)
		}
	})
}
