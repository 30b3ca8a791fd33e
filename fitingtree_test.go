package fitingtree_test

import (
	"bytes"
	"encoding/gob"
	"io"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"fitingtree"
	"fitingtree/internal/bench"
	"fitingtree/internal/workload"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	keys := workload.IoT(30_000, 1)
	vals := make([]string, len(keys))
	for i := range vals {
		vals[i] = "v"
	}
	tr, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 100})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := tr.Lookup(keys[777]); !ok {
		t.Fatal("lookup missed a loaded key")
	}
	tr.Insert(keys[777], "dup")
	n := 0
	tr.Each(keys[777], func(v string) bool { n++; return true })
	if n < 2 {
		t.Fatalf("Each saw %d copies after duplicate insert", n)
	}
	st := tr.Stats()
	if st.Pages == 0 || st.IndexSize == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestZeroOptionsDefaults(t *testing.T) {
	tr, err := fitingtree.BulkLoad([]uint64{1, 2, 3}, []int{1, 2, 3}, fitingtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := tr.Options()
	if o.Error != fitingtree.DefaultError {
		t.Fatalf("default Error = %d", o.Error)
	}
	if o.BufferSize != 0 {
		t.Fatalf("zero-value BufferSize should stay 0 (unbuffered), got %d", o.BufferSize)
	}
	tr2, err := fitingtree.BulkLoad([]uint64{1, 2, 3}, []int{1, 2, 3}, fitingtree.Options{BufferSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr2.Options().BufferSize; got != fitingtree.DefaultError/2 {
		t.Fatalf("BufferSize -1 should select Error/2, got %d", got)
	}
}

func TestSecondaryPublicAPI(t *testing.T) {
	column := []float64{9.5, 1.1, 9.5, 3.3}
	s, err := fitingtree.BuildSecondary(column, fitingtree.Options{Error: 4, BufferSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := s.Rows(9.5)
	if len(rows) != 2 {
		t.Fatalf("Rows(9.5) = %v", rows)
	}
}

func TestEncodeDecode(t *testing.T) {
	keys := workload.Weblogs(20_000, 2)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i) * 3
	}
	tr, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 64, BufferSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the tree with buffered inserts before snapshotting.
	for i := 0; i < 500; i++ {
		tr.Insert(keys[i*7]+1, 999)
	}
	var buf bytes.Buffer
	if err := fitingtree.Encode(tr, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := fitingtree.Decode[uint64, uint64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("decoded Len = %d, want %d", back.Len(), tr.Len())
	}
	if back.Options().Error != 64 {
		t.Fatalf("decoded options lost: %+v", back.Options())
	}
	// Contents identical in order.
	type kv struct {
		k, v uint64
	}
	var a, b []kv
	tr.Ascend(func(k, v uint64) bool { a = append(a, kv{k, v}); return true })
	back.Ascend(func(k, v uint64) bool { b = append(b, kv{k, v}); return true })
	if len(a) != len(b) {
		t.Fatalf("element count mismatch %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].k != b[i].k {
			t.Fatalf("key mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if err := back.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := fitingtree.Decode[uint64, int](bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("decoded garbage")
	}
}

// TestDecodeStreamWithRetiredSearch pins that a snapshot stream whose
// header's Options carries the retired Search field (hand-encoded here with
// Search = 2, what a build with SearchExponential wrote) still decodes: gob
// skips a field the receiving struct lacks, so Decode rebuilds the same
// content as a bare tree, an Optimistic and a Sharded, and each re-encodes
// to the stream of the same tree saved without the field.
func TestDecodeStreamWithRetiredSearch(t *testing.T) {
	type options struct{ Error, BufferSize, Search int }
	type snapshotHeader struct {
		Version, Elements int
		Options           options
	}
	keys := workload.Weblogs(5_000, 3)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	var old bytes.Buffer
	enc := gob.NewEncoder(&old)
	for _, part := range []any{snapshotHeader{1, len(keys), options{64, 16, 2}}, keys, vals} {
		if err := enc.Encode(part); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 64, BufferSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := fitingtree.Encode(tr, &want); err != nil {
		t.Fatal(err)
	}
	for name, roundTrip := range map[string]func(r io.Reader, w io.Writer) error{
		"Decode": func(r io.Reader, w io.Writer) error {
			back, err := fitingtree.Decode[uint64, uint64](r)
			if err != nil {
				return err
			}
			return fitingtree.Encode(back, w)
		},
		"NewOptimistic": func(r io.Reader, w io.Writer) error {
			tr, err := fitingtree.Decode[uint64, uint64](r)
			if err != nil {
				return err
			}
			back := fitingtree.NewOptimistic(tr)
			defer back.Close()
			return fitingtree.EncodeOptimistic(back, w)
		},
		"NewSharded": func(r io.Reader, w io.Writer) error {
			tr, err := fitingtree.Decode[uint64, uint64](r)
			if err != nil {
				return err
			}
			back, err := fitingtree.NewSharded(tr, 3)
			if err != nil {
				return err
			}
			defer back.Close()
			return fitingtree.EncodeSharded(back, w)
		},
	} {
		var got bytes.Buffer
		if err := roundTrip(bytes.NewReader(old.Bytes()), &got); err != nil {
			t.Fatalf("%s of a stream with the retired Search field: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: the stream with the retired Search field rebuilt different content", name)
		}
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	keys := make([]uint64, 50_000)
	for i := range keys {
		keys[i] = uint64(i * 2)
	}
	vals := make([]int, len(keys))
	tr, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 100})
	if err != nil {
		t.Fatal(err)
	}
	c := bench.NewConcurrent(tr)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(100_000))
				if k%2 == 0 && k < 100_000 {
					if !c.Contains(k) && k < uint64(len(keys)*2) {
						// Writers may be deleting; only even bulk keys that
						// were never deleted must be present. Tolerate.
						_ = k
					}
				}
				c.AscendRange(k, k+50, func(uint64, int) bool { return true })
			}
		}(int64(r))
	}
	for i := 0; i < 20_000; i++ {
		c.Insert(uint64(200_000+i), -i)
	}
	close(stop)
	wg.Wait()
	if c.Len() != 70_000 {
		t.Fatalf("Len = %d, want 70000", c.Len())
	}
	if _, ok := c.Lookup(200_001); !ok {
		t.Fatal("inserted key missing after concurrent phase")
	}
	if c.Delete(200_001) != true {
		t.Fatal("delete failed")
	}
	if c.Stats().Elements != 69_999 {
		t.Fatalf("stats elements = %d", c.Stats().Elements)
	}
}

func TestTuneLatencyTarget(t *testing.T) {
	keys := workload.Weblogs(100_000, 3)
	res, err := fitingtree.Tune(keys, fitingtree.TuneRequest{
		MaxLatencyNs: 5_000,
		CacheMissNs:  50,
		Candidates:   []int{10, 100, 1000, 10000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedLatencyNs > 5_000 {
		t.Fatalf("pick violates SLA: %f", res.PredictedLatencyNs)
	}
	if res.Error == 0 || res.PredictedSizeBytes <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestTuneSpaceBudget(t *testing.T) {
	keys := workload.Weblogs(100_000, 3)
	res, err := fitingtree.Tune(keys, fitingtree.TuneRequest{
		MaxIndexBytes: 1 << 20,
		CacheMissNs:   50,
		Candidates:    []int{10, 100, 1000, 10000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedSizeBytes > 1<<20 {
		t.Fatalf("pick violates budget: %d", res.PredictedSizeBytes)
	}
	// Build at the picked threshold and confirm the real index fits the
	// budget too (the model is pessimistic).
	vals := make([]int, len(keys))
	tr, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: res.Error})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().IndexSize; got > 1<<20 {
		t.Fatalf("actual index %d exceeds budget", got)
	}
}

func TestTuneValidation(t *testing.T) {
	keys := []uint64{1, 2, 3}
	if _, err := fitingtree.Tune(keys, fitingtree.TuneRequest{}); err == nil {
		t.Fatal("accepted empty request")
	}
	if _, err := fitingtree.Tune(keys, fitingtree.TuneRequest{MaxLatencyNs: 1, MaxIndexBytes: 1}); err == nil {
		t.Fatal("accepted both constraints")
	}
	if _, err := fitingtree.Tune(keys, fitingtree.TuneRequest{MaxLatencyNs: 0.0001, CacheMissNs: 50}); err == nil {
		t.Fatal("accepted unsatisfiable SLA")
	}
}

// TestQuickEncodeDecodeRoundTrip is a property test: any random multiset
// stored in a tree survives Encode/Decode exactly, including order.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(raw []uint16, errRaw uint8) bool {
		keys := make([]uint64, len(raw))
		for i, r := range raw {
			keys[i] = uint64(r % 512)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		vals := make([]uint64, len(keys))
		for i := range vals {
			vals[i] = uint64(i)
		}
		e := 2 + int(errRaw%64)
		tr, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: e, BufferSize: e / 3})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if fitingtree.Encode(tr, &buf) != nil {
			return false
		}
		back, err := fitingtree.Decode[uint64, uint64](&buf)
		if err != nil {
			return false
		}
		if back.Len() != tr.Len() {
			return false
		}
		var a, b []uint64
		tr.Ascend(func(k, v uint64) bool { a = append(a, k); return true })
		back.Ascend(func(k, v uint64) bool { b = append(b, k); return true })
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return back.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
