package pager

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

func TestBlobRoundTripAcrossSizes(t *testing.T) {
	s := NewStore(NewDisk())
	sizes := []int{0, 1, BlobPayload - 1, BlobPayload, BlobPayload + 1, 3*BlobPayload + 17}
	heads := make([]PageID, len(sizes))
	blobs := make([][]byte, len(sizes))
	for i, n := range sizes {
		blob := make([]byte, n)
		for j := range blob {
			blob[j] = byte(i + j)
		}
		head, err := s.Put(blob)
		if err != nil {
			t.Fatal(err)
		}
		heads[i], blobs[i] = head, blob
	}
	for i, head := range heads {
		got, err := s.Get(head)
		if err != nil {
			t.Fatalf("size %d: %v", sizes[i], err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("size %d: got %d bytes back", sizes[i], len(got))
		}
	}
}

func TestBlobChecksumDetectsCorruption(t *testing.T) {
	d := NewDisk()
	s := NewStore(d)
	head, err := s.Put(bytes.Repeat([]byte{7}, 2*BlobPayload))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one payload byte of the second page in the chain.
	chain, err := s.Chain(head)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	d.Read(chain[1], buf)
	buf[blobHeader+5] ^= 0xFF
	d.Write(chain[1], buf)
	if _, err := s.Get(head); err == nil {
		t.Fatal("corrupted blob page loaded without error")
	}
}

func TestFreeCommitReusesPages(t *testing.T) {
	d := NewDisk()
	s := NewStore(d)
	head, err := s.Put(make([]byte, 2*BlobPayload))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(head); err != nil {
		t.Fatal(err)
	}
	// Before Commit the pages still belong to the previous checkpoint:
	// a new Put must extend the device rather than reuse them.
	before := d.NumPages()
	if _, err := s.Put(make([]byte, BlobPayload)); err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != before+1 {
		t.Fatalf("pre-commit Put reused freed pages: %d -> %d", before, d.NumPages())
	}
	s.Commit()
	before = d.NumPages()
	if _, err := s.Put(make([]byte, 2*BlobPayload)); err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != before {
		t.Fatalf("post-commit Put did not reuse freed pages: %d -> %d", before, d.NumPages())
	}
}

func TestSuperblockAlternatesAndSurvivesTorn(t *testing.T) {
	d := NewDisk()
	NewStore(d) // reserve superblock pages
	if _, ok, err := ReadSuper(d); err != nil || ok {
		t.Fatalf("empty device has a superblock: ok=%v err=%v", ok, err)
	}
	if err := WriteSuper(d, Super{Epoch: 1, Manifest: 5, ReplayFrom: 10}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSuper(d, Super{Epoch: 2, Manifest: 9, ReplayFrom: 20}); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadSuper(d)
	if err != nil || !ok || got.Epoch != 2 || got.Manifest != 9 || got.ReplayFrom != 20 {
		t.Fatalf("super = %+v ok=%v err=%v", got, ok, err)
	}
	// Tear the epoch-3 superblock write (slot 1, overwriting epoch 1):
	// recovery must fall back to epoch 2 in slot 0.
	buf := make([]byte, PageSize)
	copy(buf, []byte{0x44, 0x54, 0x49, 0x46}) // magic, garbage body
	d.Write(PageID(1), buf)
	got, ok, err = ReadSuper(d)
	if err != nil || !ok || got.Epoch != 2 {
		t.Fatalf("after torn super: %+v ok=%v err=%v", got, ok, err)
	}
}

func TestRebuildFree(t *testing.T) {
	d := NewDisk()
	s := NewStore(d)
	h1, _ := s.Put(make([]byte, BlobPayload)) // page 2
	h2, _ := s.Put(make([]byte, BlobPayload)) // page 3
	_ = h2
	s.RebuildFree([]PageID{h1})
	if s.FreePages() != 1 {
		t.Fatalf("free pages = %d, want 1", s.FreePages())
	}
	// The next Put must land on the unreachable page.
	h3, err := s.Put(make([]byte, 1))
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h2 {
		t.Fatalf("Put landed on page %d, want reclaimed %d", h3, h2)
	}
}

func TestFaultDeviceWritePath(t *testing.T) {
	d := NewFaultDevice(NewDisk())
	s := NewStore(d)
	if _, err := s.Put(make([]byte, BlobPayload)); err != nil {
		t.Fatal(err)
	}
	if d.Ops() == 0 {
		t.Fatal("probe counted no operations")
	}
	d.SetTrip(0) // the very next write trips
	if _, err := s.Put(make([]byte, 3*BlobPayload)); !errors.Is(err, ErrInjected) {
		t.Fatalf("tripped Put error = %v", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-trip Sync error = %v", err)
	}
	if !d.Tripped() {
		t.Fatal("injector did not report tripping")
	}
}

func TestFaultDeviceReadPath(t *testing.T) {
	d := NewFaultDevice(NewDisk())
	s := NewStore(d)
	head, err := s.Put(bytes.Repeat([]byte{1}, 2*BlobPayload))
	if err != nil {
		t.Fatal(err)
	}
	d.SetReadTrip(1) // first read fine, second (chain page 2) fails
	if _, err := s.Get(head); !errors.Is(err, ErrInjected) {
		t.Fatalf("Get error = %v, want injected", err)
	}
	d.SetReadTrip(-1)
	if _, err := s.Get(head); err != nil {
		t.Fatalf("Get after disarm: %v", err)
	}
}

// TestCommitReusesLowPagesFirst: pages freed over two commits — the second
// freeing two chains out of order into a non-empty freelist — come back
// lowest first, so the next blob lands in one ascending run over the freed
// range, the order RebuildFree over the same live set hands out.
func TestCommitReusesLowPagesFirst(t *testing.T) {
	d := NewDisk()
	s := NewStore(d)
	var heads [4]PageID
	for i := range heads {
		var err error
		if heads[i], err = s.Put(make([]byte, 3*BlobPayload)); err != nil {
			t.Fatal(err)
		}
	}
	live, err := s.Chain(heads[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, freed := range [][]PageID{{heads[3]}, {heads[2], heads[1]}} {
		for _, head := range freed {
			if err := s.Free(head); err != nil {
				t.Fatal(err)
			}
		}
		s.Commit()
	}
	ref := NewStore(d)
	ref.RebuildFree(live)
	var want []PageID
	for range 9 {
		want = append(want, ref.alloc())
	}
	head, err := s.Put(make([]byte, 9*BlobPayload))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Chain(head)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Put after Commit took pages %v, RebuildFree hands out %v", got, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("Put after Commit took pages %v, want one ascending run", got)
		}
	}
}

func TestFileDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(d)
	blob := bytes.Repeat([]byte{0xAB}, BlobPayload+100)
	head, err := s.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSuper(d, Super{Epoch: 1, Manifest: head}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: superblock and blob must come back intact.
	d2, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	sup, ok, err := ReadSuper(d2)
	if err != nil || !ok || sup.Manifest != head {
		t.Fatalf("reopened super = %+v ok=%v err=%v", sup, ok, err)
	}
	got, err := NewStore(d2).Get(sup.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("reopened blob: %d bytes", len(got))
	}
}

// readCounter counts Read calls: every page a walk touches is one Read.
type readCounter struct {
	Device
	reads int
}

func (c *readCounter) Read(id PageID, buf []byte) error {
	c.reads++
	return c.Device.Read(id, buf)
}

// TestChainMemoFreeReadsNothing pins the memo's contract: a blob this store
// wrote (Put) or read (GetChain) is freed without a device read, a blob it
// never saw is walked, and either way Free stages exactly the blob's chain.
func TestChainMemoFreeReadsNothing(t *testing.T) {
	dev := &readCounter{Device: NewDisk()}
	s := NewStore(dev)
	put, err := s.Put(make([]byte, 3*BlobPayload))
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.Put(make([]byte, 2*BlobPayload+1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(put); err != nil || dev.reads != 0 || len(s.pending) != 3 {
		t.Fatalf("Free of a Put head: err=%v reads=%d pending=%v", err, dev.reads, s.pending)
	}
	s.Commit()

	// A second store over the same device knows nothing: Free walks the
	// chain, and a GetChain beforehand makes the walk unnecessary.
	s2 := NewStore(dev)
	if err := s2.Free(other); err != nil || dev.reads != 3 {
		t.Fatalf("Free of an unknown head: err=%v reads=%d, want 3", err, dev.reads)
	}
	s2.Rollback()
	if _, chain, err := s2.GetChain(other, nil, nil); err != nil || len(chain) != 3 {
		t.Fatalf("GetChain: %v %v", chain, err)
	}
	dev.reads = 0
	if err := s2.Free(other); err != nil || dev.reads != 0 || len(s2.pending) != 3 {
		t.Fatalf("Free after GetChain: err=%v reads=%d pending=%v", err, dev.reads, s2.pending)
	}
}

// TestChainMemoRollbackForgetsAttempt: a rolled-back attempt's blobs leave
// the memo (freeing one later must read it, not trust a chain whose pages
// were never committed), its pages stay off the freelist, and the frees it
// staged are live — and memoized — again.
func TestChainMemoRollbackForgetsAttempt(t *testing.T) {
	dev := &readCounter{Device: NewDisk()}
	s := NewStore(dev)
	live, _ := s.Put(make([]byte, 2*BlobPayload))
	s.Commit()
	if err := s.Free(live); err != nil {
		t.Fatal(err)
	}
	failed, _ := s.Put(make([]byte, 2*BlobPayload))
	s.Rollback()
	if s.FreePages() != 0 || len(s.pending) != 0 {
		t.Fatalf("Rollback returned pages: free=%v pending=%v", s.free, s.pending)
	}
	if _, ok := s.known(failed, nil); ok {
		t.Fatal("the rolled-back attempt's chain is still memoized")
	}
	if err := s.Free(live); err != nil || dev.reads != 0 {
		t.Fatalf("Free of the re-live blob: err=%v reads=%d", err, dev.reads)
	}
}

// TestStorePartitionProperty drives random Put / GetChain / Free / Commit /
// Rollback / reopen sequences against a model and checks after every step
// that the freelist, the pending frees, the live blobs' chains and the
// pages leaked by rolled-back attempts partition the allocated pages, that
// the memo agrees with the device about every chain it claims to know, and
// that a Free of a known head reads nothing.
func TestStorePartitionProperty(t *testing.T) {
	type blob struct {
		data  []byte
		chain []PageID
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev := &readCounter{Device: NewDisk()}
		s := NewStore(dev)
		live := map[PageID]blob{}   // committed or staged, not freed
		freed := map[PageID]blob{}  // freed by the in-flight attempt
		staged := map[PageID]bool{} // put by the in-flight attempt
		known := map[PageID]bool{}
		leaked := map[PageID]bool{}
		pick := func() (PageID, bool) {
			heads := make([]PageID, 0, len(live))
			for h := range live {
				heads = append(heads, h)
			}
			if len(heads) == 0 {
				return 0, false
			}
			sort.Slice(heads, func(a, b int) bool { return heads[a] < heads[b] })
			return heads[rng.Intn(len(heads))], true
		}
		endAttempt := func(commit bool) {
			if commit {
				s.Commit()
			} else {
				s.Rollback()
				for h, b := range freed {
					live[h] = b
				}
				for h := range staged {
					if b, ok := live[h]; ok {
						for _, id := range b.chain {
							leaked[id] = true
						}
						delete(live, h)
						delete(known, h)
					}
				}
			}
			clear(freed)
			clear(staged)
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				data := make([]byte, rng.Intn(4*BlobPayload))
				rng.Read(data)
				head, err := s.Put(data)
				if err != nil {
					t.Fatal(err)
				}
				chain, err := NewStore(dev.Device).Chain(head)
				if err != nil {
					t.Fatal(err)
				}
				live[head], staged[head], known[head] = blob{data, chain}, true, true
			case op < 6:
				if head, ok := pick(); ok {
					before := dev.reads
					if err := s.Free(head); err != nil {
						t.Fatal(err)
					}
					if known[head] && dev.reads != before {
						t.Fatalf("seed %d step %d: Free of known head %d made %d reads", seed, step, head, dev.reads-before)
					}
					freed[head] = live[head]
					delete(live, head)
				}
			case op < 7:
				if head, ok := pick(); ok {
					data, chain, err := s.GetChain(head, nil, nil)
					if err != nil || !bytes.Equal(data, live[head].data) || !slices.Equal(chain, live[head].chain) {
						t.Fatalf("seed %d step %d: GetChain(%d): %v", seed, step, head, err)
					}
					known[head] = true
				}
			case op < 8:
				endAttempt(true)
			case op < 9:
				endAttempt(false)
			default:
				// Reopen: a fresh store over the same device, its freelist
				// rebuilt from what the committed state reaches.
				endAttempt(rng.Intn(2) == 0)
				var reach []PageID
				for _, b := range live {
					reach = append(reach, b.chain...)
				}
				s = NewStore(dev)
				s.RebuildFree(reach)
				clear(known)
				clear(leaked)
			}

			owner := map[PageID]string{}
			claim := func(id PageID, who string) {
				if prev, dup := owner[id]; dup {
					t.Fatalf("seed %d step %d: page %d is both %s and %s", seed, step, id, prev, who)
				}
				owner[id] = who
			}
			for _, id := range s.free {
				claim(id, "free")
			}
			for _, id := range s.pending {
				claim(id, "pending")
			}
			for id := range leaked {
				claim(id, "leaked")
			}
			for h, b := range live {
				for _, id := range b.chain {
					claim(id, "live")
				}
				if got, ok := s.known(h, nil); ok != known[h] || (ok && !slices.Equal(got, b.chain)) {
					t.Fatalf("seed %d step %d: memo of head %d = %v (known %v), device chain %v (known %v)",
						seed, step, h, got, ok, b.chain, known[h])
				}
			}
			if len(owner) != dev.NumPages()-2 {
				t.Fatalf("seed %d step %d: %d of %d pages accounted for", seed, step, len(owner), dev.NumPages()-2)
			}
		}
	}
}
