package main

import (
	"bytes"
	"strings"
	"testing"

	"fitingtree"
)

func shellTree(t *testing.T) *fitingtree.Tree[uint64, uint64] {
	t.Helper()
	keys := make([]uint64, 1000)
	vals := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i * 10)
		vals[i] = uint64(i)
	}
	tr, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: 16, BufferSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func run(t *testing.T, script string) string {
	t.Helper()
	var out bytes.Buffer
	runShell(treeIndex{shellTree(t)}, strings.NewReader(script), &out)
	return out.String()
}

func TestShellGet(t *testing.T) {
	out := run(t, "get 500\nget 501\n")
	if !strings.Contains(out, "key 500 -> value 50") {
		t.Fatalf("missing hit: %s", out)
	}
	if !strings.Contains(out, "key 501 not found") {
		t.Fatalf("missing miss: %s", out)
	}
}

func TestShellRangeInsertDelete(t *testing.T) {
	out := run(t, "range 100 200\ninsert 105\nrange 100 200\ndelete 105\ndelete 105\n")
	if !strings.Contains(out, "11 elements in [100, 200]") {
		t.Fatalf("initial range wrong: %s", out)
	}
	if !strings.Contains(out, "12 elements in [100, 200]") {
		t.Fatalf("post-insert range wrong: %s", out)
	}
	if !strings.Contains(out, "deleted: true") || !strings.Contains(out, "deleted: false") {
		t.Fatalf("delete replies wrong: %s", out)
	}
}

func TestShellStatsAndErrors(t *testing.T) {
	out := run(t, "stats\nget\nget abc\nrange 1\nbogus\nquit\nget 500\n")
	if !strings.Contains(out, "elements=1000") {
		t.Fatalf("stats missing: %s", out)
	}
	if !strings.Contains(out, "usage: get <key>") {
		t.Fatalf("get usage missing: %s", out)
	}
	if !strings.Contains(out, "bad key") {
		t.Fatalf("bad key missing: %s", out)
	}
	if !strings.Contains(out, "usage: range <lo> <hi>") {
		t.Fatalf("range usage missing: %s", out)
	}
	if !strings.Contains(out, "commands:") {
		t.Fatalf("help missing: %s", out)
	}
	if strings.Contains(out, "key 500") {
		t.Fatalf("command after quit was executed: %s", out)
	}
}

func TestShellEmptyLines(t *testing.T) {
	out := run(t, "\n\nget 0\n")
	if !strings.Contains(out, "key 0 -> value 0") {
		t.Fatalf("empty lines broke the shell: %s", out)
	}
}
