package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeRun runs the benchmark in-process at a hundredth of its size and
// returns the result line, which must be the contract's four keys exactly.
func smokeRun(t *testing.T, tmp string, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append(args, "-scale", "0.01", "-tmp", tmp)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d\n%s%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var res result
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("run %v: result line %q: %v", args, lines[len(lines)-1], err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil || len(keys) != 4 {
		t.Fatalf("run %v: result line has keys %v, want correct, attempted, failed, metrics", args, keys)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run %v: correct=%v failed=%d attempted=%d\n%s", args, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

// checkMetrics holds a result to its list: every name, no other, the
// listed unit, a finite value.
func checkMetrics(t *testing.T, what string, res result, defs []metricDef, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, the list has %d", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, the list says %q", what, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, d.Name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("%s: %s = %v, an end-to-end metric is never 0", what, d.Name, m.Value)
		}
	}
}

func TestSmokeWorkloads(t *testing.T) {
	tmp := t.TempDir()
	for _, w := range workloadDefs {
		res := smokeRun(t, tmp, "-workload", w.Name, "-seed", "3")
		checkMetrics(t, w.Name, res, endToEnd, true)
	}
}

func TestSmokeTracedRun(t *testing.T) {
	tmp := t.TempDir()
	spans := filepath.Join(tmp, "spans.jsonl")
	first := smokeRun(t, tmp, "-workload", "durable_ingest", "-trace", "1", "-trace-out", spans)
	checkMetrics(t, "traced", first, perLayer, false)
	second := smokeRun(t, tmp, "-workload", "mixed_rw", "-trace", "1")
	for _, name := range countMetrics {
		if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
			t.Errorf("%s read %v, then %v: a count must repeat exactly", name, a, b)
		}
	}
	if v := first.Metrics["core.allocs_per_lookup"].Value; v > 0.01 {
		t.Errorf("core.allocs_per_lookup = %v, want 0", v)
	}

	// The span file: every line a span, children inside their parents, and
	// I/O spans under client operations as well as under harness calls.
	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var all []span
	names := map[string]bool{}
	ioUnderOp := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			ID, Parent int32
			Name       string
			Op         int64
			Start      int64 `json:"start_ns"`
			End        int64 `json:"end_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		all = append(all, span{s.ID, s.Parent, s.Name, s.Op, s.Start, s.End})
		names[s.Name] = true
		ioUnderOp = ioUnderOp || (s.Name == "wal.write" && s.Op >= 0)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := checkNesting(all); err != nil {
		t.Error(err)
	}
	for _, want := range []string{
		"op.lookup", "op.insert", "op.delete", "op.scan",
		"wal.write", "wal.sync", "pager.read", "pager.write", "pager.sync",
		"durable.checkpoint", "durable.open", "optimistic.syncflush", "optimistic.publish",
	} {
		if !names[want] {
			t.Errorf("no %s span in %s", want, spans)
		}
	}
	if !ioUnderOp {
		t.Error("no wal.write span carries the id of the insert that caused it")
	}
}

// TestManifest holds BENCHMARK.json to the lists in metrics.go and both to
// the limits of the contract.
func TestManifest(t *testing.T) {
	var buf bytes.Buffer
	if err := writeManifest(&buf); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, buf.Bytes()) {
		t.Error("BENCHMARK.json is not `go run ./benchmark manifest`; regenerate it")
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !metricName.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is %d characters, at most 200 on one line", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range perLayer {
		name(d.Name)
	}
	layers := defsByName(perLayer)
	for _, n := range countMetrics {
		if _, ok := layers[n]; !ok {
			t.Errorf("count metric %s is not a per-layer metric", n)
		}
	}
}

func TestCompare(t *testing.T) {
	lookups := endToEnd[1]
	if lookups.Name != "lookup_ops_per_s" {
		t.Fatal("endToEnd[1] is not lookup_ops_per_s")
	}
	for _, c := range []struct {
		a, b []float64
		want verdict
	}{
		{[]float64{100, 101, 99}, []float64{100, 100, 102}, within},
		{[]float64{100, 101, 99}, []float64{70, 71, 69}, worse},
		{[]float64{100, 101, 99}, []float64{120, 121, 119}, better},
		{[]float64{100, 160, 40}, []float64{95, 170, 50}, unresolved},
		{[]float64{100, 160, 40}, []float64{295, 350, 270}, better},
	} {
		if got, _, _ := judge(lookups, c.a, c.b); got != c.want {
			t.Errorf("judge(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	// Python: statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v, want 1.75, 5.25", q1, q3)
	}

	// A scaled capture is stamped and refused.
	dir := t.TempDir()
	scaled := filepath.Join(dir, "scaled.json")
	data, _ := json.Marshal(capture{Meta: captureMeta{Scale: 0.01, Seconds: refSeconds}})
	if err := os.WriteFile(scaled, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := compareCmd([]string{scaled, scaled}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "-scale") {
		t.Errorf("compare of a scaled capture: exit %d, %q", code, errOut.String())
	}
}

// TestCrashWrappers checks the check: after Crash, what no Sync covered is
// not on the real files any more, and what one did is.
func TestCrashWrappers(t *testing.T) {
	dir := t.TempDir()
	inner, err := wal.NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfs := newCrashFS(inner, dir)
	f, err := cfs.Append("log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("synced."))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("lost"))
	if err := cfs.Crash(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "log")); string(got) != "synced." {
		t.Errorf("log holds %q after the crash, want %q", got, "synced.")
	}
	if cfs.discarded != 4 {
		t.Errorf("discarded %d bytes, want 4", cfs.discarded)
	}
	if _, err := f.Write([]byte("late")); err == nil {
		t.Error("a write after the crash went through")
	}

	disk, err := pager.OpenFileDisk(filepath.Join(dir, pagesFile))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	dev := newCrashDev(disk)
	kept, lost := dev.Allocate(), dev.Allocate()
	page := make([]byte, pager.PageSize)
	page[0] = 1
	dev.Write(kept, page)
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	page[0] = 2
	dev.Write(lost, page)
	dev.Write(kept, page)
	dev.Crash()
	got := make([]byte, pager.PageSize)
	if err := disk.Read(kept, got); err != nil || got[0] != 1 {
		t.Errorf("synced page reads %d (%v), want 1", got[0], err)
	}
	if err := disk.Read(lost, got); err != nil || got[0] != 0 {
		t.Errorf("unsynced page reads %d (%v), want 0", got[0], err)
	}
	if dev.discarded != 2 {
		t.Errorf("discarded %d page writes, want 2", dev.discarded)
	}
}
