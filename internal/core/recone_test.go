package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// reconeStream folds an ingest-shaped stream (foldStream) into a small-ε
// tree the way a publishing fold does, MergeCOW then Recone, checking after
// every Recone that the tree it was given is untouched, the result holds
// the same content under its invariants, and every chunk it did not re-cone
// is shared by identity. It returns the final tree, how many Recone calls
// changed their tree, and the content the stream leaves.
func reconeStream(t *testing.T, n, layers int) (*Tree[uint64, uint64], int, []uint64) {
	t.Helper()
	base, stream, final := foldStream(n, layers, 1024, 21)
	tr, err := BulkLoad(base, base, Options{Error: 32, BufferSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i, ops := range stream {
		merged := tr.MergeCOW(ops)
		before := contents(merged)
		tr = Recone(merged, len(ops))
		if tr == merged {
			continue
		}
		changed++
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("layer %d: %v", i, err)
		}
		if err := merged.CheckInvariants(); err != nil {
			t.Fatalf("layer %d: Recone's input: %v", i, err)
		}
		if !slices.Equal(contents(merged), before) || !slices.Equal(contents(tr), before) {
			t.Fatalf("layer %d: Recone changed the content", i)
		}
		if tr.NumPages() > merged.NumPages() || tr.Len() != merged.Len() {
			t.Fatalf("layer %d: %d pages and %d elements from %d and %d", i, tr.NumPages(), tr.Len(), merged.NumPages(), merged.Len())
		}
		kept := map[uint64]bool{}
		for _, id := range merged.ChunkIDs() {
			kept[id] = true
		}
		shared := 0
		for _, id := range tr.ChunkIDs() {
			if kept[id] {
				shared++
			}
		}
		if shared < len(merged.chunks)-len(stream[i])/reconeOps {
			t.Fatalf("layer %d: %d of %d chunks shared with the input, budget %d", i, shared, len(merged.chunks), len(stream[i])/reconeOps)
		}
	}
	return tr, changed, final
}

// TestReconeCompactsCopyOnWrite pins Recone's contract on a stream that
// splits many pages (ε 32): content, invariants and sharing hold at every
// step (reconeStream), the input tree is never edited, and the chain ends
// within 1.25× the pages a BulkLoad of the same content makes — the bare
// folds leave 3.3× (1.12× with Recone when written).
func TestReconeCompactsCopyOnWrite(t *testing.T) {
	tr, changed, final := reconeStream(t, 100_000, 100)
	if changed == 0 {
		t.Fatal("no Recone call changed its tree: the compaction went untested")
	}
	fresh, err := BulkLoad(final, final, tr.Options())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.NumPages(), fresh.NumPages(); float64(got) > 1.25*float64(want) {
		t.Fatalf("%d pages after the stream, %.2f× the %d of a BulkLoad", got, float64(got)/float64(want), want)
	}
}

// TestReconeLayoutDeterministic pins that the chunks Recone picks, and the
// pages it makes, depend on the tree and the op counts alone: the same
// stream at one and at four processors lays out the same chain.
func TestReconeLayoutDeterministic(t *testing.T) {
	layout := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tr, _, _ := reconeStream(t, 100_000, 40)
		out := ""
		for _, c := range tr.chunks {
			out += fmt.Sprintf("chunk %d:", len(c.pages))
			for _, p := range c.pages {
				out += fmt.Sprintf(" %d/%d/%g/%v", p.start(), len(p.keys), p.seg.Slope, p.fit)
			}
			out += "\n"
		}
		return out
	}
	if one, four := layout(1), layout(4); one != four {
		t.Fatal("the chain after the same stream differs between one and four processors")
	}
}
