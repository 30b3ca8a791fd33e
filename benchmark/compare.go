package main

// compare.go: captures of whole sets of runs, and the two commands that
// judge them — compare (one capture against another) and selfcheck (the
// same binary against itself).

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// capture is what -all -out writes: every run of every set, and enough
// about the machine and the code to know what the numbers are numbers of.
type capture struct {
	Meta captureMeta  `json:"meta"`
	Runs []captureRun `json:"runs"`
}

type captureMeta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Sets       int     `json:"sets"`
	When       string  `json:"when"`
}

type captureRun struct {
	Workload string `json:"workload"`
	Set      int    `json:"set"`
	Trace    int    `json:"trace"`
	// MachineSpeed is the median the run printed: its rates times this, and
	// its times over this, are the raw numbers. 0 for a traced run, which
	// reports raw numbers and machine.speed among them.
	MachineSpeed float64 `json:"machine_speed,omitempty"`
	result
}

func newMeta(o options) captureMeta {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return captureMeta{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Scale:      o.scale,
		Sets:       o.sets,
		When:       time.Now().UTC().Format(time.RFC3339),
	}
}

// child runs one workload in a fresh process of this binary, passes its
// report through, and parses the result line and the machine speed.
func child(o options, workload string, trace int, stdout, stderr io.Writer) (*captureRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload,
		"-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds),
		"-scale", fmt.Sprint(o.scale),
		"-trace", fmt.Sprint(trace),
		"-tmp", o.tmp,
	}
	if o.verbose {
		args = append(args, "-v")
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		stdout.Write(buf.Bytes())
		return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	run := &captureRun{Workload: workload, Trace: trace}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for _, line := range lines[:len(lines)-1] {
		fmt.Fprintf(stdout, "  %s\n", line)
		fmt.Sscanf(line, "machine_speed %g", &run.MachineSpeed) // no match on other lines
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.result); err != nil {
		return nil, fmt.Errorf("%s (trace %d): result line: %w", workload, trace, err)
	}
	return run, nil
}

// runSets runs every workload o.sets times, one set after the other, each
// run in its own process; with o.trace it adds the traced run of every
// workload to every set.
func runSets(o options, stdout, stderr io.Writer) (*capture, error) {
	c := &capture{Meta: newMeta(o)}
	for set := 1; set <= o.sets; set++ {
		for trace := 0; trace <= o.trace; trace++ {
			for _, w := range workloadDefs {
				fmt.Fprintf(stdout, "set %d  %s  trace %d\n", set, w.Name, trace)
				run, err := child(o, w.Name, trace, stdout, stderr)
				if err != nil {
					return nil, err
				}
				run.Set = set
				c.Runs = append(c.Runs, *run)
			}
		}
	}
	return c, nil
}

func (c *capture) failures() int64 {
	var n int64
	for _, r := range c.Runs {
		n += r.Failed
	}
	return n
}

func allCmd(o options, stdout, stderr io.Writer) int {
	c, err := runSets(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.out != "" {
		data, err := json.MarshalIndent(c, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if n := c.failures(); n > 0 {
		fmt.Fprintf(stderr, "benchmark: %d operations failed\n", n)
		return 1
	}
	return 0
}

func readCapture(path string) (*capture, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c capture
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if c.Meta.Scale != 1 {
		return nil, fmt.Errorf("%s was taken at -scale %g; only full-size captures compare", path, c.Meta.Scale)
	}
	return &c, nil
}

// values are one side's readings of one metric on one workload.
func (c *capture) values(workload, metric string, sets func(int) bool) []float64 {
	var vs []float64
	for _, r := range c.Runs {
		if r.Workload == workload && r.Trace == 0 && sets(r.Set) {
			if m, ok := r.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

type verdict string

const (
	better     verdict = "better"
	within     verdict = "within bound"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
	differs    verdict = "differs"
)

// judge compares the change's readings b with the parent's a. worsening is
// the change of the median as a share of the parent's, positive when worse.
// When either side's quartile spread exceeds the bound the medians cannot
// be told apart and the verdict is unresolved — unless every reading of one
// side beats every reading of the other.
func judge(d metricDef, a, b []float64) (v verdict, worsening, spread float64) {
	ma, mb := median(a), median(b)
	worsening = (mb - ma) / ma
	lo, hi := minMax(a), minMax(b) // as [min, max]
	allBetter, allWorse := hi[1] < lo[0], hi[0] > lo[1]
	if d.Better == higher {
		worsening = -worsening
		allBetter, allWorse = allWorse, allBetter
	}
	for _, side := range [][]float64{a, b} {
		q1, q3 := quartiles(side)
		spread = math.Max(spread, (q3-q1)/median(side))
	}
	switch {
	case spread > d.Bound && allBetter:
		return better, worsening, spread
	case spread > d.Bound && allWorse && worsening > d.Bound:
		return worse, worsening, spread
	case spread > d.Bound:
		return unresolved, worsening, spread
	case worsening > d.Bound:
		return worse, worsening, spread
	case -worsening > spread:
		return better, worsening, spread
	}
	return within, worsening, spread
}

func minMax(xs []float64) [2]float64 {
	m := [2]float64{xs[0], xs[0]}
	for _, x := range xs {
		m[0], m[1] = math.Min(m[0], x), math.Max(m[1], x)
	}
	return m
}

// table prints one row per workload and metric and returns how many rows
// got each verdict. With twoSided, medians that differ by more than the
// bound in either direction get the verdict differs.
func table(w io.Writer, a, b *capture, setsA, setsB func(int) bool, twoSided bool) map[verdict]int {
	counts := make(map[verdict]int)
	fmt.Fprintf(w, "%-15s %-22s %14s %14s %9s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "worse by", "spread", "bound", "verdict")
	for _, wl := range workloadDefs {
		for _, d := range endToEnd {
			va, vb := a.values(wl.Name, d.Name, setsA), b.values(wl.Name, d.Name, setsB)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worsening, spread := judge(d, va, vb)
			if twoSided && math.Abs(worsening) > d.Bound {
				v = differs
			}
			counts[v]++
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			fmt.Fprintf(w, "%-15s %-22s %14.6g %14.6g %+8.1f%% %7.1f%% %5.0f%%  %-12s a[%.6g %.6g] b[%.6g %.6g] n=%d,%d\n",
				wl.Name, d.Name, median(va), median(vb), worsening*100, spread*100, d.Bound*100, v,
				qa1, qa3, qb1, qb3, len(va), len(vb))
		}
	}
	return counts
}

func everySet(int) bool { return true }

func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare parent.json change.json")
		return 2
	}
	a, err := readCapture(args[0])
	var b *capture
	if err == nil {
		b, err = readCapture(args[1])
	}
	if err == nil && a.Meta.Seconds != b.Meta.Seconds {
		err = errors.New("the captures were taken at different -seconds")
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	bad := table(stdout, a, b, everySet, everySet, false)[worse]
	if n := b.failures(); n > 0 {
		fmt.Fprintf(stdout, "%s: %d operations failed\n", args[1], n)
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regressions\n", bad)
		return 1
	}
	return 0
}

// selfcheckCmd runs 2×pairs sets of this binary and compares the odd sets
// with the even ones: the same code on the same inputs, interleaved, must
// agree with itself inside every metric's own bound.
func selfcheckCmd(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark selfcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.register(fs)
	pairs := fs.Int("pairs", 2, "sets per side")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.sets, o.trace = 2**pairs, 0
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	c, err := runSets(o, io.Discard, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	odd := func(set int) bool { return set%2 == 1 }
	even := func(set int) bool { return set%2 == 0 }
	bad := table(stdout, c, c, odd, even, true)[differs]
	if n := c.failures(); n > 0 {
		fmt.Fprintf(stdout, "%d operations failed\n", n)
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "selfcheck: %d metrics disagree with themselves\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: every metric agrees with itself inside its bound")
	return 0
}
