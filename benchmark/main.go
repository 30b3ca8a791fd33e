// Command benchmark is the repository's one canonical benchmark: four
// workloads, thirteen end-to-end metrics each, and a traced run that
// measures every layer from outside. README.md in this directory defines
// all of it; BENCHMARK.json at the repository root is its manifest.
//
//	go run ./benchmark -workload ingest -seed 7          one untraced run
//	go run ./benchmark -workload ingest -trace 1         the traced run
//	go run ./benchmark -all -sets 2 -out a.json          every workload, twice
//	go run ./benchmark compare a.json b.json             regression verdicts
//	go run ./benchmark selfcheck                         same code against itself
//	go run ./benchmark manifest                          BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the flags of a run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	scale    float64
	tmp      string
	all      bool
	sets     int
	out      string
	verbose  bool
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.workload, "workload", "", "workload to run: read_only, ingest, mixed_rw or durable_ingest")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", refSeconds, "run length the op counts are sized for")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced run (per-layer metrics) in place of the untraced one")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default <tmp>/spans-<workload>.jsonl)")
	fs.Float64Var(&o.scale, "scale", 1, "shrinks key and op counts; results are stamped and compare refuses them")
	fs.StringVar(&o.tmp, "tmp", ".bench_tmp", "directory for durable stores and span files")
	fs.BoolVar(&o.all, "all", false, "run every workload, each in a fresh process, and print every metric")
	fs.IntVar(&o.sets, "sets", 1, "with -all: how many times to run the set")
	fs.StringVar(&o.out, "out", "", "with -all: file to write the capture to")
	fs.BoolVar(&o.verbose, "v", false, "print how long each phase took to standard error")
}

func (o *options) config(stderr io.Writer) config {
	var progress io.Writer
	if o.verbose {
		progress = stderr
	}
	return config{
		progress: progress,
		workload: o.workload,
		seed:     o.seed,
		work:     o.seconds / refSeconds * o.scale,
		size:     o.scale,
		tmp:      o.tmp,
		traceOut: o.traceOut,
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:], stdout, stderr)
		case "selfcheck":
			return selfcheckCmd(args[1:], stdout, stderr)
		case "manifest":
			if err := writeManifest(stdout); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			return 0
		}
	}
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || o.scale <= 0 || o.sets < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.all {
		return allCmd(o, stdout, stderr)
	}
	res, err := runOne(o.config(stderr), o.trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract's four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload, traced or not, prints each metric with its unit
// and sample count, and returns the result line.
func runOne(cfg config, traced bool, stdout io.Writer) (*result, error) {
	defs := endToEnd
	var rp *report
	var r *runner
	var err error
	if traced {
		defs = perLayer
		rp, r, err = runTraced(cfg)
	} else {
		rp, r, err = runWorkload(cfg)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "workload=%s traced=%v seed=%d work=%g size=%g nproc=%d gomaxprocs=%d %s\n",
		cfg.workload, traced, cfg.seed, cfg.work, cfg.size, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := rp.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(stdout, "%-44s %18.6g %-6s samples=%d\n", d.Name, v, d.Unit, rp.samples[d.Name])
	}
	if len(rp.values) != len(defs) {
		extra := make([]string, 0)
		known := defsByName(defs)
		for name := range rp.values {
			if _, ok := known[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("workload %s measured unlisted metrics %v", cfg.workload, extra)
	}
	if len(rp.speeds) > 0 {
		q1, q3 := quartiles(rp.speeds)
		fmt.Fprintf(stdout, "%-44s %18.6g %-6s samples=%d quartiles=%.3g..%.3g (1 = the reference machine, undisturbed; rates and times above are at speed 1)\n",
			"machine_speed", median(rp.speeds), "ratio", len(rp.speeds), q1, q3)
	}
	fmt.Fprintf(stdout, "%-44s %18.6g %-6s samples=%d\n", "failed_share",
		float64(r.failed)/float64(r.attempted), "ratio", r.attempted)
	if r.failed > 0 {
		fmt.Fprintf(stdout, "first failure: %s\n", r.firstFailure)
	}
	return res, nil
}
