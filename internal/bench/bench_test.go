package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// quickCfg keeps experiment smoke tests fast.
func quickCfg() Config {
	return Config{N: 30_000, Seed: 1, Probes: 2_000, MinMeasure: time.Millisecond, Quick: true}
}

func TestTablePrinting(t *testing.T) {
	tab := NewTable("demo", "a", "bb")
	tab.Add(1, "x")
	tab.Add(123456, 1.5)
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title: %s", out)
	}
	if !strings.Contains(out, "123456") {
		t.Fatalf("missing row: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("unexpected line count %d: %s", len(lines), out)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		0:       "0B",
		512:     "512B",
		1 << 10: "1.00KB",
		1 << 20: "1.00MB",
		1 << 30: "1.00GB",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%d) = %s, want %s", in, got, want)
		}
	}
}

func TestProbesAndSplit(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	p := Probes(keys, 500, 1)
	if len(p) != 500 {
		t.Fatalf("Probes returned %d", len(p))
	}
	for _, k := range p {
		if k >= 1000 {
			t.Fatalf("probe %d out of range", k)
		}
	}
	bulk, ins := SplitForInserts(keys, 0.2, 1)
	if len(bulk)+len(ins) != 1000 {
		t.Fatalf("split lost elements: %d + %d", len(bulk), len(ins))
	}
	if len(ins) < 100 || len(ins) > 300 {
		t.Fatalf("insert fraction off: %d", len(ins))
	}
	for i := 1; i < len(bulk); i++ {
		if bulk[i] < bulk[i-1] {
			t.Fatal("bulk portion not sorted")
		}
	}
}

func TestLookupNsPositive(t *testing.T) {
	keys := []uint64{1, 2, 3}
	ns := LookupNs(func(k uint64) (int, bool) { return 0, true }, keys, time.Millisecond)
	if ns <= 0 {
		t.Fatalf("ns = %f", ns)
	}
	if ns := LookupNs(func(k uint64) (int, bool) { return 0, true }, nil, time.Millisecond); ns != 0 {
		t.Fatalf("empty probes should measure 0, got %f", ns)
	}
}

// Smoke tests: every registered experiment completes and emits its table.
func TestExperimentSmoke(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			pts := e.Run(&buf, quickCfg())
			if !strings.Contains(buf.String(), "==") {
				t.Fatalf("%s produced no table: %q", e.Name, buf.String())
			}
			if len(strings.Split(buf.String(), "\n")) < 4 {
				t.Fatalf("%s table too short:\n%s", e.Name, buf.String())
			}
			if (pts != nil) != e.JSON {
				t.Fatalf("%s returned points %v, registered with JSON=%v", e.Name, pts, e.JSON)
			}
			if got, ok := Find(e.Name); !ok || got.Name != e.Name {
				t.Fatalf("Find(%q) = %v, %v", e.Name, got.Name, ok)
			}
		})
	}
}
