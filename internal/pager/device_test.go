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

// readAheadDisks returns a FileDisk and a Disk holding the same n pages of
// random bytes, the FileDisk's last pages allocated past its file's end
// and so read as zeroes.
func readAheadDisks(t *testing.T, rng *rand.Rand, n int) (*FileDisk, *Disk) {
	t.Helper()
	file, err := OpenFileDisk(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	mem := NewDisk()
	page := make([]byte, PageSize)
	for id := PageID(0); int(id) < n; id++ {
		file.Allocate()
		mem.Allocate()
		if int(id) >= n-5 {
			continue // never written: past the end of the file
		}
		rng.Read(page)
		if err := file.Write(id, page); err != nil {
			t.Fatal(err)
		}
		mem.Write(id, page)
	}
	if err := file.Sync(); err != nil {
		t.Fatal(err)
	}
	return file, mem
}

// TestFileDiskReadAheadMatchesDisk reads a FileDisk and a Disk of the same
// pages in sequential, reverse and random orders, and in a script that
// mixes sequential walks with full-page and short writes into the window,
// allocations and syncs: every read returns the same bytes, zeroes past
// the file's end included.
func TestFileDiskReadAheadMatchesDisk(t *testing.T) {
	const n = 200 // three windows and a part
	rng := rand.New(rand.NewSource(7))
	fbuf, mbuf := make([]byte, PageSize), make([]byte, PageSize)
	read := func(t *testing.T, file *FileDisk, mem *Disk, id PageID) {
		t.Helper()
		clear(fbuf)
		if err := file.Read(id, fbuf); err != nil {
			t.Fatal(err)
		}
		mem.Read(id, mbuf)
		if !bytes.Equal(fbuf, mbuf) {
			t.Fatalf("page %d reads differently", id)
		}
	}
	var sequential, reverse, random []PageID
	for id := PageID(0); id < n; id++ {
		sequential, reverse = append(sequential, id), append(reverse, n-1-id)
	}
	for _, i := range rng.Perm(n) {
		random = append(random, PageID(i))
	}
	for _, order := range []struct {
		name string
		ids  []PageID
	}{{"sequential", sequential}, {"reverse", reverse}, {"random", random}} {
		t.Run(order.name, func(t *testing.T) {
			file, mem := readAheadDisks(t, rng, n)
			for _, id := range order.ids {
				read(t, file, mem, id)
			}
		})
	}

	t.Run("read-after-write", func(t *testing.T) {
		file, mem := readAheadDisks(t, rng, n)
		page := make([]byte, PageSize)
		at := PageID(0)
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(100); {
			case r < 60: // walk on
				read(t, file, mem, at)
				at = (at + 1) % PageID(mem.NumPages())
			case r < 70: // start a walk elsewhere
				at = PageID(rng.Intn(mem.NumPages()))
				read(t, file, mem, at)
			case r < 82: // a full page just ahead of the walk: inside the window
				id := min(at+PageID(rng.Intn(8)), PageID(mem.NumPages()-1))
				rng.Read(page)
				if err := file.Write(id, page); err != nil {
					t.Fatal(err)
				}
				mem.Write(id, page)
			case r < 88: // a short write
				id := PageID(rng.Intn(mem.NumPages()))
				short := page[:1+rng.Intn(PageSize-1)]
				rng.Read(short)
				if err := file.Write(id, short); err != nil {
					t.Fatal(err)
				}
				mem.Write(id, short)
			case r < 92:
				file.Allocate()
				mem.Allocate()
			default:
				if err := file.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestFileDiskReadAheadReadCount counts the file reads behind Read: a
// sequential walk of n pages takes at most ⌈n/runPages⌉ + 1, a walk that
// never reads the page after the previous one takes one per page, and a
// write drops the window, so the next read goes to the file again.
func TestFileDiskReadAheadReadCount(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	buf := make([]byte, PageSize)
	for _, n := range []int{1, 2, runPages, runPages + 1, 3*runPages + 7} {
		file, _ := readAheadDisks(t, rng, n+5)
		for id := PageID(0); int(id) < n; id++ {
			if err := file.Read(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		if max := int64((n+runPages-1)/runPages + 1); file.reads > max {
			t.Errorf("a sequential walk of %d pages made %d file reads, want <= %d", n, file.reads, max)
		}

		file, _ = readAheadDisks(t, rng, n+5)
		var walk []PageID // random, no page right after its predecessor
		for _, i := range rng.Perm(n + 5) {
			if len(walk) == 0 || PageID(i) != walk[len(walk)-1]+1 {
				walk = append(walk, PageID(i))
			}
		}
		for _, id := range walk {
			if err := file.Read(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		if file.reads != int64(len(walk)) {
			t.Errorf("a random walk of %d pages made %d file reads", len(walk), file.reads)
		}
	}

	file, _ := readAheadDisks(t, rng, 10)
	for _, id := range []PageID{0, 1, 2} {
		file.Read(id, buf)
	}
	if file.reads != 2 {
		t.Fatalf("pages 0..2 took %d file reads, want 2 (page 1 fills the window)", file.reads)
	}
	if err := file.Write(7, buf); err != nil {
		t.Fatal(err)
	}
	file.Read(3, buf) // inside the old window, but the write dropped it
	if file.reads != 3 {
		t.Fatalf("pages 0..3 around a write took %d file reads, want 3", file.reads)
	}
}
