// Command fitbench is the paper reproduction: it runs the FITing-Tree
// paper's evaluation (Section 7) — Table 1 and Figures 1, 6, 7, 8, 9, 10,
// 11, 12 and 13 — plus the two system experiments (parallel, strings)
// registered in internal/bench, each printing the rows or series the
// paper reports.
// System numbers (throughput, latency, memory, durability) are not
// measured here: they are the canonical benchmark's, see
// benchmark/README.md.
//
// Usage:
//
//	fitbench -exp all                 # everything, paper order
//	fitbench -exp fig6 -n 2000000     # one experiment at a larger scale
//	fitbench -exp table1 -quick       # reduced sweeps
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fitingtree/internal/bench"
)

func main() {
	var (
		all      = strings.Join(bench.Names(false), ", ")
		withJSON = strings.Join(bench.Names(true), ", ")
		exp      = flag.String("exp", "all", "experiment, or a comma-separated list run in order: "+all+", all")
		n        = flag.Int("n", 1_000_000, "base dataset size")
		seed     = flag.Int64("seed", 1, "workload RNG seed")
		probes   = flag.Int("probes", 100_000, "lookup probes per measurement")
		quick    = flag.Bool("quick", false, "reduced sweeps for a fast run")
		jsonPath = flag.String("json", "", "write machine-readable results of one -exp "+withJSON+" to this file; with -exp all, each of them goes to <name>_<exp>.<ext>")
	)
	flag.Parse()

	cfg := bench.Config{
		N:          *n,
		Seed:       *seed,
		Probes:     *probes,
		MinMeasure: 100 * time.Millisecond,
		Quick:      *quick,
	}

	var run []bench.Experiment
	for _, name := range strings.Split(*exp, ",") {
		if name == "all" {
			run = append(run, bench.Experiments...)
			continue
		}
		e, ok := bench.Find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "fitbench: unknown experiment %q; valid: %s, all\n", name, all)
			os.Exit(2)
		}
		run = append(run, e)
	}
	if *jsonPath != "" && *exp != "all" && (len(run) != 1 || !run[0].JSON) {
		fmt.Fprintf(os.Stderr, "fitbench: -json applies only to a single -exp %s, or all\n", withJSON)
		os.Exit(2)
	}
	start := time.Now()
	for _, e := range run {
		points := e.Run(os.Stdout, cfg)
		if !e.JSON || *jsonPath == "" {
			continue
		}
		path := *jsonPath
		if *exp == "all" {
			path = suffixedPath(path, "_"+e.Name)
		}
		writeJSON(path, report{
			Experiment: e.Name,
			N:          cfg.N,
			Seed:       cfg.Seed,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Points:     points,
		})
	}
	fmt.Printf("(%s in %s, n=%d, seed=%d)\n", *exp, time.Since(start).Round(time.Millisecond), *n, *seed)
}

// report is the machine-readable envelope around one experiment's points
// (BENCH_pr1.json parallel, BENCH_pr8.json strings), so a later run can
// be compared against a recorded one.
type report struct {
	Experiment string `json:"experiment"`
	N          int    `json:"n"`
	Seed       int64  `json:"seed"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Points     any    `json:"points"`
}

// suffixedPath derives one report's file name when -exp all captures
// several experiments under one -json flag: "x.json" with suffix
// "_strings" becomes "x_strings.json".
func suffixedPath(path, suffix string) string {
	if ext := filepath.Ext(path); ext != "" {
		return strings.TrimSuffix(path, ext) + suffix + ext
	}
	return path + suffix
}

// writeJSON marshals r to path.
func writeJSON(path string, r report) {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fitbench: encode json: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "fitbench: write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
