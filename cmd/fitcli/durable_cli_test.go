package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// buildCLI compiles fitcli into a temp dir once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fitcli")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCLISaveLoadRoundTrip persists a dataset with save and reads it back
// through the durable shell.
func TestCLISaveLoadRoundTrip(t *testing.T) {
	bin := buildCLI(t)
	dir := filepath.Join(t.TempDir(), "store")

	out, err := exec.Command(bin, "save", "-dir", dir, "-dataset", "iot", "-n", "20000", "-error", "64").CombinedOutput()
	if err != nil {
		t.Fatalf("save: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "saved 20000 iot keys") {
		t.Fatalf("save output: %s", out)
	}
	// The saved store audits clean: the create's cut and the close's cut
	// fill both superblock slots.
	out, err = exec.Command(bin, "scrub", "-dir", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("scrub: %v\n%s", err, out)
	}
	for _, want := range []string{"superblock 0: ok, epoch ", "superblock 1: ok, epoch ", " 1 shards, ", " 20000 elements\n", " live pages verified "} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("scrub output lacks %q: %s", want, out)
		}
	}

	load := exec.Command(bin, "load", "-dir", dir)
	load.Stdin = strings.NewReader("insert 42\nget 42\nstats\nquit\n")
	out, err = load.CombinedOutput()
	if err != nil {
		t.Fatalf("load: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "opened "+dir+": 20000 elements") {
		t.Fatalf("load banner missing: %s", s)
	}
	if !strings.Contains(s, "elements=20001") || !strings.Contains(s, "key 42 -> value 0") {
		t.Fatalf("shell replies wrong: %s", s)
	}
	// A durable store's stats line carries the maintenance counters too.
	if !strings.Contains(s, "pages_made=") {
		t.Fatalf("durable stats line lacks the counters: %s", s)
	}

	// The shell insert must be durable: reopen and check.
	load = exec.Command(bin, "load", "-dir", dir)
	load.Stdin = strings.NewReader("get 42\nquit\n")
	out, err = load.CombinedOutput()
	if err != nil {
		t.Fatalf("reload: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "key 42 -> value 0") {
		t.Fatalf("insert did not survive reopen: %s", out)
	}
}

// TestCLICrashRecovery SIGKILLs a pump mid-stream and verifies recovery
// retains every key the pump acknowledged before dying.
func TestCLICrashRecovery(t *testing.T) {
	bin := buildCLI(t)
	dir := filepath.Join(t.TempDir(), "store")

	if out, err := exec.Command(bin, "save", "-dir", dir, "-dataset", "iot", "-n", "5000", "-error", "64").CombinedOutput(); err != nil {
		t.Fatalf("save: %v\n%s", err, out)
	}

	// Pump far more keys than we will let finish, and read acks past
	// several flushes at the tree's own threshold (1024 pending writes on
	// a store this small), so the kill can land mid-insert, mid-flush, or
	// mid-checkpoint.
	const start, count = uint64(1 << 40), 200000
	pump := exec.Command(bin, "pump", "-dir", dir,
		"-start", strconv.FormatUint(start, 10),
		"-count", strconv.Itoa(count))
	stdout, err := pump.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := pump.Start(); err != nil {
		t.Fatal(err)
	}
	var acked []uint64
	sc := bufio.NewScanner(stdout)
	for sc.Scan() && len(acked) < 4000 {
		var k uint64
		if _, err := fmt.Sscanf(sc.Text(), "acked %d", &k); err != nil {
			t.Fatalf("bad pump line %q: %v", sc.Text(), err)
		}
		acked = append(acked, k)
	}
	if err := pump.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	pump.Wait() // expected to report the kill; the store is now mid-write
	if len(acked) < 100 {
		t.Fatalf("pump acknowledged only %d keys before kill", len(acked))
	}

	out, err := exec.Command(bin, "recover", "-dir", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("recover: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "recovered ") || !strings.Contains(string(out), "wal open: ") {
		t.Fatalf("recover output: %s", out)
	}
	// The store recover closed audits clean and holds what it recovered.
	var recovered int
	if _, err := fmt.Sscanf(string(out), "recovered %d elements", &recovered); err != nil {
		t.Fatalf("parse recover output: %v\n%s", err, out)
	}
	out, err = exec.Command(bin, "scrub", "-dir", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("scrub after recovery: %v\n%s", err, out)
	}
	audit := string(out)
	want := fmt.Sprintf(" 1 shards, %d chunks, %d elements\n", strings.Count(audit, "  shard 0 chunk "), recovered)
	if !strings.Contains(audit, want) || !strings.Contains(audit, " live pages verified ") {
		t.Fatalf("scrub after recovery lacks %q: %s", want, audit)
	}

	// Every acknowledged key must be present, alongside the saved dataset.
	var script bytes.Buffer
	for _, k := range acked {
		fmt.Fprintf(&script, "get %d\n", k)
	}
	script.WriteString("stats\nquit\n")
	load := exec.Command(bin, "load", "-dir", dir)
	load.Stdin = &script
	out, err = load.CombinedOutput()
	if err != nil {
		t.Fatalf("load after recovery: %v\n%s", err, out)
	}
	s := string(out)
	if strings.Contains(s, "not found") {
		t.Fatalf("acknowledged key lost after crash recovery:\n%s", firstLines(s, 30))
	}
	for _, k := range []uint64{acked[0], acked[len(acked)/2], acked[len(acked)-1]} {
		if !strings.Contains(s, fmt.Sprintf("key %d -> value %d", k, k)) {
			t.Fatalf("key %d missing or wrong value after recovery:\n%s", k, firstLines(s, 30))
		}
	}
	// Element count: the 5000 saved keys plus at least the acked pump keys.
	if !strings.Contains(s, "elements=") {
		t.Fatalf("stats missing: %s", firstLines(s, 30))
	}
	n := elementsFrom(t, s)
	if n < 5000+len(acked) || n > 5000+count {
		t.Fatalf("recovered %d elements, want between %d and %d", n, 5000+len(acked), 5000+count)
	}
}

// firstLines truncates s to its first n lines for readable failures.
func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// elementsFrom extracts the elements=N field from shell stats output.
func elementsFrom(t *testing.T, s string) int {
	t.Helper()
	at := strings.Index(s, "elements=")
	if at < 0 {
		t.Fatalf("no stats in output")
	}
	var n int
	if _, err := fmt.Sscanf(s[at:], "elements=%d", &n); err != nil {
		t.Fatalf("parse stats: %v", err)
	}
	return n
}
