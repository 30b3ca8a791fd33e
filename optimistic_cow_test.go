package fitingtree

// White-box tests for the copy-on-write flush: they reach into the
// facade's published states to verify page sharing and snapshot encoding,
// which the black-box suite (package fitingtree_test) cannot see.

import (
	"bytes"
	"testing"

	"fitingtree/internal/workload"
)

// TestOptimisticFlushSharesPages pins the COW contract at the facade
// level: after a flush triggered by a small clustered delta, the newly
// published state's tree shares (by identity) almost every page with the
// previously published state's tree.
func TestOptimisticFlushSharesPages(t *testing.T) {
	keys := workload.Weblogs(200_000, 3)
	vals := make([]uint64, len(keys))
	tr, err := BulkLoad(keys, vals, Options{Error: 32, BufferSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimistic(tr)
	o.SetAsyncFlush(true) // pin the pipeline's sharing, whatever GOMAXPROCS says
	o.SetFlushEvery(8)

	before := o.state.Load().tree
	beforeIDs := map[uint64]bool{}
	for _, id := range before.PageIDs() {
		beforeIDs[id] = true
	}
	beforeChunks := map[uint64]bool{}
	for _, id := range before.ChunkIDs() {
		beforeChunks[id] = true
	}

	// Seven writes stay in the delta; the eighth trips the flush — under
	// the async pipeline that freezes the delta and hands it to the
	// background flusher, so quiesce before inspecting the published
	// tree. Keys cluster around one spot so the dirty region is narrow.
	at := keys[100_000]
	for i := uint64(0); i < 8; i++ {
		o.Insert(at+i, i)
	}
	o.SyncFlush()
	after := o.state.Load().tree
	if after == before {
		t.Fatal("flush did not publish a new tree")
	}
	if st := o.state.Load(); st.delta != nil || st.frozen != nil {
		t.Fatal("a delta survived the flush")
	}

	total, shared, fresh := 0, 0, 0
	for _, id := range after.PageIDs() {
		total++
		if beforeIDs[id] {
			shared++
		} else {
			fresh++
		}
	}
	if fresh == 0 {
		t.Fatal("no pages rebuilt by flush")
	}
	if fresh > 16 {
		t.Fatalf("clustered 8-write delta rebuilt %d of %d pages", fresh, total)
	}
	if shared < total-16 {
		t.Fatalf("only %d of %d pages shared across the flush", shared, total)
	}
	// Chain chunks share the same way: the narrow dirty interval re-cuts
	// at most its boundary chunks, every other chunk survives by identity.
	chunkTotal, chunkShared, chunkFresh := 0, 0, 0
	for _, id := range after.ChunkIDs() {
		chunkTotal++
		if beforeChunks[id] {
			chunkShared++
		} else {
			chunkFresh++
		}
	}
	if chunkFresh == 0 {
		t.Fatal("no chunks re-cut by flush")
	}
	if chunkFresh > 3 {
		t.Fatalf("clustered 8-write delta re-cut %d of %d chunks", chunkFresh, chunkTotal)
	}
	if chunkShared < chunkTotal-3 {
		t.Fatalf("only %d of %d chunks shared across the flush", chunkShared, chunkTotal)
	}
	if err := after.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := before.CheckInvariants(); err != nil {
		t.Fatalf("pre-flush tree corrupted by flush: %v", err)
	}
}

// TestOptimisticSnapshotRoundTrip covers EncodeOptimistic/Decode
// including a state with a non-empty delta (pending inserts AND pending
// tombstones), and cross-decoding with the bare-Tree Decode.
func TestOptimisticSnapshotRoundTrip(t *testing.T) {
	keys := []uint64{2, 4, 4, 6, 8, 10, 12}
	vals := []uint64{20, 40, 41, 60, 80, 100, 120}
	tr, err := BulkLoad(keys, vals, Options{Error: 16, BufferSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimistic(tr)
	o.SetFlushEvery(1 << 20) // keep everything in the delta

	o.Insert(5, 50)
	o.Insert(5, 51)
	o.Insert(13, 130)
	if !o.Delete(4) { // tombstones one base duplicate
		t.Fatal("Delete(4) missed")
	}
	if o.state.Load().delta == nil {
		t.Fatal("test needs a non-empty delta")
	}

	var buf bytes.Buffer
	if err := EncodeOptimistic(o, &buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	collect := func(e interface {
		AscendRange(lo, hi uint64, fn func(k, v uint64) bool)
	}) (ks, vs []uint64) {
		e.AscendRange(0, 1<<62, func(k, v uint64) bool {
			ks = append(ks, k)
			vs = append(vs, v)
			return true
		})
		return
	}
	wantK, wantV := collect(o)

	back, err := Decode[uint64, uint64](bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	o2 := NewOptimistic(back)
	if o2.Len() != o.Len() {
		t.Fatalf("decoded Len = %d, want %d", o2.Len(), o.Len())
	}
	gotK, gotV := collect(o2)
	if len(gotK) != len(wantK) {
		t.Fatalf("decoded %d elements, want %d", len(gotK), len(wantK))
	}
	for i := range wantK {
		if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
			t.Fatalf("element %d = (%d,%d), want (%d,%d)", i, gotK[i], gotV[i], wantK[i], wantV[i])
		}
	}

	// The same stream is a valid bare-Tree snapshot.
	t2, err := Decode[uint64, uint64](bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if t2.Len() != o.Len() {
		t.Fatalf("bare decode Len = %d, want %d", t2.Len(), o.Len())
	}
	// And a bare-Tree snapshot decodes into a facade.
	buf.Reset()
	if err := Encode(t2, &buf); err != nil {
		t.Fatal(err)
	}
	back, err = Decode[uint64, uint64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	o3 := NewOptimistic(back)
	if o3.Len() != o.Len() {
		t.Fatalf("cross decode Len = %d, want %d", o3.Len(), o.Len())
	}
}

// TestOptimisticDeleteScanOrderPin pins the documented tombstone-count
// semantics: Delete consumes pending inserts newest-first, then tombstones
// base matches in scan order — the first N values Each would yield — and a
// flush preserves exactly that accounting.
func TestOptimisticDeleteScanOrderPin(t *testing.T) {
	// Error 2 forces tiny pages, so the duplicates of key 7 span pages.
	keys := []uint64{1, 3, 7, 7, 7, 7, 7, 7, 7, 7, 9, 11, 13, 15, 17, 19}
	vals := []uint64{0, 0, 100, 101, 102, 103, 104, 105, 106, 107, 0, 0, 0, 0, 0, 0}
	tr, err := BulkLoad(keys, vals, Options{Error: 2, BufferSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimistic(tr)
	o.SetFlushEvery(1 << 20)

	scan := func() (out []uint64) {
		o.Each(7, func(v uint64) bool { out = append(out, v); return true })
		return
	}
	base := scan()
	if len(base) != 8 {
		t.Fatalf("expected 8 duplicates of 7, got %d", len(base))
	}

	// A pending insert is consumed before any base match is tombstoned.
	o.Insert(7, 999)
	if !o.Delete(7) {
		t.Fatal("Delete missed")
	}
	if got := scan(); len(got) != 8 || got[0] != base[0] {
		t.Fatalf("pending insert not consumed first: %v", got)
	}

	// Three deletes tombstone the first three matches in scan order.
	for i := 0; i < 3; i++ {
		if !o.Delete(7) {
			t.Fatal("Delete missed")
		}
	}
	got := scan()
	if len(got) != 5 {
		t.Fatalf("%d survivors, want 5", len(got))
	}
	for i, v := range got {
		if v != base[3+i] {
			t.Fatalf("survivor %d = %d, want %d (first-3-in-scan-order must die)", i, v, base[3+i])
		}
	}

	// The COW flush applies the same accounting.
	o.SetFlushEvery(1)
	o.Insert(1000, 0) // trigger flush
	o.SyncFlush()     // quiesce the async pipeline before inspecting
	if st := o.state.Load(); st.delta != nil || st.frozen != nil {
		t.Fatal("a delta survived flush")
	}
	flushed := scan()
	if len(flushed) != len(got) {
		t.Fatalf("flush changed survivor count: %d != %d", len(flushed), len(got))
	}
	for i := range got {
		if flushed[i] != got[i] {
			t.Fatalf("flush changed survivor %d: %d != %d", i, flushed[i], got[i])
		}
	}
}
