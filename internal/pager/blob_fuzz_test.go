package pager

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fuzzMaxPages bounds the page files FuzzBlobChain opens.
const fuzzMaxPages = 160

// blobChainSeed is a page file and a script of reads over it.
type blobChainSeed struct {
	pages, script []byte
}

// blobChainStore builds a real store on a Disk: blobs of the given sizes,
// then frees and rewrites of some, so later chains reuse low pages and
// leave their order, then a superblock per epoch naming the last blob. It
// returns the page file and a script that reads the superblock and gets
// and chains every live head.
func blobChainStore(seed int64, sizes []int, rewrites int) blobChainSeed {
	rng := rand.New(rand.NewSource(seed))
	mem := NewDisk()
	s := NewStore(mem)
	var heads []PageID
	put := func(n int) {
		blob := make([]byte, n)
		rng.Read(blob)
		head, err := s.Put(blob)
		if err != nil {
			panic(err)
		}
		heads = append(heads, head)
	}
	for _, n := range sizes {
		put(n)
	}
	for epoch := uint64(1); epoch <= uint64(rewrites)+1; epoch++ {
		if err := WriteSuper(mem, Super{Epoch: epoch, Manifest: heads[len(heads)-1], ReplayFrom: epoch}); err != nil {
			panic(err)
		}
		s.Commit()
		if epoch <= uint64(rewrites) {
			i := rng.Intn(len(heads))
			if err := s.Free(heads[i]); err != nil {
				panic(err)
			}
			heads = slices.Delete(heads, i, i+1)
			put(rng.Intn(4 * BlobPayload))
		}
	}
	var sd blobChainSeed
	for _, p := range mem.pages {
		sd.pages = append(sd.pages, p...)
	}
	sd.script = append(sd.script, 0, 0, 0)
	for _, h := range heads {
		sd.script = binary.LittleEndian.AppendUint16(append(sd.script, 1), uint16(h))
		sd.script = binary.LittleEndian.AppendUint16(append(sd.script, 2), uint16(h))
	}
	return sd
}

// FuzzBlobChain opens fuzzed page-file bytes two ways, as a FileDisk over a
// file holding them and as an in-memory Disk, and runs a fuzzed script of
// ReadSuper, Get and Chain calls at fuzzed heads on a Store over each:
// both return the same superblock, bytes and page ids or fail with the
// same error, and neither panics or loops. The Disk copies each page out
// of memory; the FileDisk reads the file ahead through its window, so this
// is the window's differential oracle. Seeded with real stores, one with a
// blob longer than a window.
func FuzzBlobChain(f *testing.F) {
	for _, sd := range []blobChainSeed{
		blobChainStore(1, []int{0, 100, 2 * BlobPayload}, 0),
		blobChainStore(2, []int{BlobPayload, 3 * BlobPayload, 17, 5 * BlobPayload}, 4),
		blobChainStore(3, []int{80 * BlobPayload, 2 * BlobPayload}, 2),
	} {
		f.Add(sd.pages, sd.script)
	}
	f.Add([]byte{}, []byte{0, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, pages, script []byte) {
		pages = pages[:min(len(pages), fuzzMaxPages*PageSize)]
		path := filepath.Join(t.TempDir(), "pages.db")
		if err := os.WriteFile(path, pages, 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := OpenFileDisk(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		mem := NewDisk()
		for i := 0; i < file.NumPages(); i++ {
			copy(mem.pages[mem.Allocate()], pages[i*PageSize:])
		}
		fstore, mstore := NewStore(file), NewStore(mem)
		for ; len(script) >= 3; script = script[3:] {
			head := PageID(binary.LittleEndian.Uint16(script[1:]))
			if head == 0xFFFF {
				head = NilPage
			} else {
				head %= PageID(mem.NumPages() + 2) // a few past the end
			}
			var fgot, mgot string
			var ferr, merr error
			switch script[0] % 3 {
			case 0:
				fs, fok, fe := ReadSuper(file)
				ms, mok, me := ReadSuper(mem)
				fgot, mgot, ferr, merr = fmt.Sprint(fs, fok), fmt.Sprint(ms, mok), fe, me
			case 1:
				fb, fe := fstore.Get(head)
				mb, me := mstore.Get(head)
				fgot, mgot, ferr, merr = string(fb), string(mb), fe, me
			case 2:
				fids, fe := fstore.Chain(head)
				mids, me := mstore.Chain(head)
				fgot, mgot, ferr, merr = fmt.Sprint(fids), fmt.Sprint(mids), fe, me
			}
			if fmt.Sprint(ferr) != fmt.Sprint(merr) {
				t.Fatalf("op %d at head %d: file err %v, disk err %v", script[0]%3, head, ferr, merr)
			}
			if ferr == nil && fgot != mgot {
				t.Fatalf("op %d at head %d: file and disk read differently", script[0]%3, head)
			}
		}
	})
}
