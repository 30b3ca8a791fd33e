// Command fitbench reproduces the FITing-Tree paper's evaluation (Section
// 7): Table 1 and Figures 1, 6, 7, 8, 9, 10, 11, 12, and 13. Each
// experiment prints the rows or series the paper reports; EXPERIMENTS.md
// in the repository root records a captured run next to the paper's
// numbers.
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
		exp      = flag.String("exp", "all", "experiment, or a comma-separated list run in order: table1, fig1, fig6..fig13, extio, extrange, extablation, parallel, shardwrite, flushstall, flushpub, recovery, shardrecovery, burst, strings, adaptive, all")
		n        = flag.Int("n", 1_000_000, "base dataset size")
		seed     = flag.Int64("seed", 1, "workload RNG seed")
		probes   = flag.Int("probes", 100_000, "lookup probes per measurement")
		quick    = flag.Bool("quick", false, "reduced sweeps for a fast run")
		jsonPath = flag.String("json", "", "write machine-readable results of one -exp parallel, shardwrite, flushstall, flushpub, recovery, shardrecovery, burst, strings or adaptive to this file; with -exp all, parallel goes here and each other one to <name>_<exp>.<ext>")
	)
	flag.Parse()

	cfg := bench.Config{
		N:          *n,
		Seed:       *seed,
		Probes:     *probes,
		MinMeasure: 100 * time.Millisecond,
		Quick:      *quick,
	}

	runners := map[string]func(){
		"table1":      func() { bench.Table1(os.Stdout, cfg) },
		"fig1":        func() { bench.Fig1(os.Stdout, cfg) },
		"fig6":        func() { bench.Fig6(os.Stdout, cfg) },
		"fig7":        func() { bench.Fig7(os.Stdout, cfg) },
		"fig8":        func() { bench.Fig8(os.Stdout, cfg) },
		"fig9":        func() { bench.Fig9(os.Stdout, cfg) },
		"fig10":       func() { bench.Fig10(os.Stdout, cfg) },
		"fig11":       func() { bench.Fig11(os.Stdout, cfg) },
		"fig12":       func() { bench.Fig12(os.Stdout, cfg) },
		"fig13":       func() { bench.Fig13(os.Stdout, cfg) },
		"extio":       func() { bench.ExtIO(os.Stdout, cfg) },
		"extrange":    func() { bench.ExtRange(os.Stdout, cfg) },
		"extablation": func() { bench.ExtAblation(os.Stdout, cfg) },
		"parallel": func() {
			writeParallelJSON(*jsonPath, cfg, bench.ExtParallel(os.Stdout, cfg))
		},
		"shardwrite": func() {
			writeShardWriteJSON(*jsonPath, cfg, bench.ExtShardWrite(os.Stdout, cfg))
		},
		"flushstall": func() {
			writeFlushStallJSON(*jsonPath, cfg, bench.ExtFlushStall(os.Stdout, cfg))
		},
		"flushpub": func() {
			writeFlushPubJSON(*jsonPath, cfg, bench.ExtFlushPub(os.Stdout, cfg))
		},
		"recovery": func() {
			writeRecoveryJSON(*jsonPath, cfg, bench.ExtRecovery(os.Stdout, cfg))
		},
		"shardrecovery": func() {
			writeShardRecoveryJSON(*jsonPath, cfg, bench.ExtShardRecovery(os.Stdout, cfg))
		},
		"burst": func() {
			writeBurstJSON(*jsonPath, cfg, bench.ExtBurst(os.Stdout, cfg))
		},
		"strings": func() {
			writeStringsJSON(*jsonPath, cfg, bench.ExtStrings(os.Stdout, cfg))
		},
		"adaptive": func() {
			writeAdaptiveJSON(*jsonPath, cfg, bench.ExtAdaptive(os.Stdout, cfg))
		},
		"all": func() {
			bench.AllButParallel(os.Stdout, cfg)
			writeShardWriteJSON(suffixedPath(*jsonPath, "_shardwrite"), cfg, bench.ExtShardWrite(os.Stdout, cfg))
			writeFlushStallJSON(suffixedPath(*jsonPath, "_flushstall"), cfg, bench.ExtFlushStall(os.Stdout, cfg))
			writeFlushPubJSON(suffixedPath(*jsonPath, "_flushpub"), cfg, bench.ExtFlushPub(os.Stdout, cfg))
			writeRecoveryJSON(suffixedPath(*jsonPath, "_recovery"), cfg, bench.ExtRecovery(os.Stdout, cfg))
			writeShardRecoveryJSON(suffixedPath(*jsonPath, "_shardrecovery"), cfg, bench.ExtShardRecovery(os.Stdout, cfg))
			writeBurstJSON(suffixedPath(*jsonPath, "_burst"), cfg, bench.ExtBurst(os.Stdout, cfg))
			writeStringsJSON(suffixedPath(*jsonPath, "_strings"), cfg, bench.ExtStrings(os.Stdout, cfg))
			writeAdaptiveJSON(suffixedPath(*jsonPath, "_adaptive"), cfg, bench.ExtAdaptive(os.Stdout, cfg))
			writeParallelJSON(*jsonPath, cfg, bench.ExtParallel(os.Stdout, cfg))
		},
	}
	names := strings.Split(*exp, ",")
	for _, name := range names {
		if _, ok := runners[name]; !ok {
			fmt.Fprintf(os.Stderr, "fitbench: unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
	}
	jsonExps := map[string]bool{"parallel": true, "shardwrite": true, "flushstall": true, "flushpub": true, "recovery": true, "shardrecovery": true, "burst": true, "strings": true, "adaptive": true, "all": true}
	if *jsonPath != "" && (len(names) != 1 || !jsonExps[*exp]) {
		fmt.Fprintf(os.Stderr, "fitbench: -json applies only to a single -exp parallel, shardwrite, flushstall, flushpub, recovery, shardrecovery, burst, strings, adaptive, or all\n")
		os.Exit(2)
	}
	start := time.Now()
	for _, name := range names {
		runners[name]()
	}
	fmt.Printf("(%s in %s, n=%d, seed=%d)\n", *exp, time.Since(start).Round(time.Millisecond), *n, *seed)
}

// writeParallelJSON writes the parallel experiment's machine-readable
// report to path; it is a no-op when path is empty.
func writeParallelJSON(path string, cfg bench.Config, points []bench.ParallelPoint) {
	writeJSON(path, bench.ParallelReport{
		Experiment: "parallel",
		N:          cfg.N,
		Seed:       cfg.Seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Points:     points,
	})
}

// writeShardWriteJSON writes the shardwrite experiment's machine-readable
// report to path; it is a no-op when path is empty.
func writeShardWriteJSON(path string, cfg bench.Config, points []bench.ShardWritePoint) {
	writeJSON(path, bench.ShardWriteReport{
		Experiment: "shardwrite",
		N:          cfg.N,
		Seed:       cfg.Seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Points:     points,
	})
}

// writeFlushStallJSON writes the flushstall experiment's machine-readable
// report to path; it is a no-op when path is empty.
func writeFlushStallJSON(path string, cfg bench.Config, points []bench.FlushStallPoint) {
	flushEvery := 0
	if len(points) > 0 {
		flushEvery = points[0].FlushEvery
	}
	writeJSON(path, bench.FlushStallReport{
		Experiment: "flushstall",
		N:          cfg.N,
		FlushEvery: flushEvery,
		Seed:       cfg.Seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Points:     points,
	})
}

// writeFlushPubJSON writes the flushpub experiment's machine-readable
// report to path; it is a no-op when path is empty.
func writeFlushPubJSON(path string, cfg bench.Config, points []bench.FlushPubPoint) {
	writeJSON(path, bench.FlushPubReport{
		Experiment: "flushpub",
		Seed:       cfg.Seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Points:     points,
	})
}

// writeRecoveryJSON writes the recovery experiment's machine-readable
// report to path; it is a no-op when path is empty.
func writeRecoveryJSON(path string, cfg bench.Config, points []bench.RecoveryPoint) {
	writeJSON(path, bench.RecoveryReport{
		Experiment: "recovery",
		N:          cfg.N,
		Seed:       cfg.Seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Points:     points,
	})
}

// writeShardRecoveryJSON writes the shardrecovery experiment's
// machine-readable report to path; it is a no-op when path is empty.
func writeShardRecoveryJSON(path string, cfg bench.Config, points []bench.ShardRecoveryPoint) {
	writeJSON(path, bench.ShardRecoveryReport{
		Experiment: "shardrecovery",
		N:          cfg.N,
		Seed:       cfg.Seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Points:     points,
	})
}

// writeBurstJSON writes the burst experiment's machine-readable report to
// path; it is a no-op when path is empty.
func writeBurstJSON(path string, cfg bench.Config, points []bench.BurstPoint) {
	flushEvery := 0
	if len(points) > 0 {
		flushEvery = points[0].FlushEvery
	}
	writeJSON(path, bench.BurstReport{
		Experiment: "burst",
		N:          cfg.N,
		FlushEvery: flushEvery,
		Seed:       cfg.Seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Points:     points,
	})
}

// writeStringsJSON writes the strings experiment's machine-readable
// report to path; it is a no-op when path is empty.
func writeStringsJSON(path string, cfg bench.Config, points []bench.StringsPoint) {
	writeJSON(path, bench.StringsReport{
		Experiment: "strings",
		N:          cfg.N,
		Seed:       cfg.Seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Points:     points,
	})
}

// writeAdaptiveJSON writes the adaptive experiment's machine-readable
// report to path; it is a no-op when path is empty.
func writeAdaptiveJSON(path string, cfg bench.Config, points []bench.AdaptivePoint) {
	writeJSON(path, bench.AdaptiveReport{
		Experiment: "adaptive",
		N:          cfg.N,
		Seed:       cfg.Seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Points:     points,
	})
}

// suffixedPath derives a sibling report's file name when -exp all
// captures several experiments under one -json flag: "x.json" with
// suffix "_shardwrite" becomes "x_shardwrite.json". Empty stays empty
// (no capture requested).
func suffixedPath(path, suffix string) string {
	if path == "" {
		return ""
	}
	if ext := filepath.Ext(path); ext != "" {
		return strings.TrimSuffix(path, ext) + suffix + ext
	}
	return path + suffix
}

// writeJSON marshals a report to path; empty path is a no-op.
func writeJSON(path string, report any) {
	if path == "" {
		return
	}
	blob, err := json.MarshalIndent(report, "", "  ")
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
