package main

// metrics.go is the list of what this benchmark reports: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics of the traced run. BENCHMARK.json at the root of the repository
// is `go run ./benchmark manifest`; smoke_test.go holds the two together.

import (
	"encoding/json"
	"fmt"
	"io"
)

// refSeconds is the run length the op counts below are sized for; -seconds
// scales them from there.
const refSeconds = 20

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"read_only", "optimistic over 4M keys, empty delta: router and window search do the work and the write path none, so a read-path or instrumentation cost shows here and a write-path change must not"},
	{"ingest", "optimistic, 90/10 insert/delete of held-out keys, then a read-back: delta publish, merge ladder and MergeCOW do the work; index_bytes and the read-back catch a bloated or fragmented index"},
	{"mixed_rw", "4 shards, 48/2/45/5 lookup/scan/insert/delete interleaved: reads hit non-empty deltas and frozen layers, so a delta that speeds writes but slows overlay reads shows here only"},
	{"durable_ingest", "2 shards on a real directory, 95/5 insert/lookup, group commit of 256, harness checkpoints, crash and 7 reopens: the only workload where fsync, WAL, checkpoint and recovery cost show"},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the index would see. Every workload
// reports every one of them (README.md says how each workload comes by the
// ones its main phase does not produce). Bound is the share of the parent
// commit's median by which a change may worsen the metric: at least three
// times the quartile spread ten runs showed on the reference machine, and at
// most the quarter the contract allows.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"lookup_ops_per_s", "1/s", higher, 0.25},
	{"lookup_ns_p50", "ns", lower, 0.25},
	{"hot_lookup_ops_per_s", "1/s", higher, 0.25},
	{"scan_rows_per_s", "1/s", higher, 0.15},
	{"batch_keys_per_s", "1/s", higher, 0.25},
	{"write_ops_per_s", "1/s", higher, 0.25},
	{"write_ns_p50", "ns", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"index_bytes", "B", lower, 0.05},
	{"heap_bytes_per_key", "B", lower, 0.05},
	{"checkpoint_s", "s", lower, 0.25},
	{"recover_s", "s", lower, 0.25},
}

// perLayer are the traced run's metrics: single layers, no bounds.
var perLayer = []metricDef{
	{"segment.cone_ns_per_key", "ns", lower, 0},
	{"segment.segments", "count", lower, 0},

	{"core.bulkload_ns_per_key", "ns", lower, 0},
	{"core.lookup_ns", "ns", lower, 0},
	{"core.lookup_ns_p99", "ns", lower, 0},
	{"core.router_ns", "ns", lower, 0},
	{"core.page_ns", "ns", lower, 0},
	{"core.hot_lookup_ns", "ns", lower, 0},
	{"core.scan_ns_per_row", "ns", lower, 0},
	{"core.batch_ns_per_key", "ns", lower, 0},
	{"core.allocs_per_lookup", "count", lower, 0},
	{"core.mergecow_ns_per_op", "ns", lower, 0},
	{"core.mergecow_pages_per_kop", "count", lower, 0},
	{"core.insert_ns", "ns", lower, 0},

	{"optimistic.lookup_overhead_ns", "ns", lower, 0},
	{"optimistic.overlay_ns", "ns", lower, 0},
	{"optimistic.write_ns_p50", "ns", lower, 0},
	{"optimistic.write_ns_p99", "ns", lower, 0},
	{"optimistic.write_ns_p999", "ns", lower, 0},
	{"optimistic.write_ns_max", "ns", lower, 0},
	{"optimistic.allocs_per_write", "count", lower, 0},
	{"optimistic.bytes_per_write", "B", lower, 0},
	{"optimistic.gc_cycles", "count", lower, 0},
	{"optimistic.folds", "count", lower, 0},
	{"optimistic.bp_folds", "count", lower, 0},
	{"optimistic.inline_write_ops_per_s", "1/s", higher, 0},
	{"optimistic.async_write_ops_per_s", "1/s", higher, 0},
	{"optimistic.pages_after_ingest", "count", lower, 0},
	{"optimistic.index_growth_ratio", "ratio", lower, 0},

	{"sharded.lookup_overhead_ns", "ns", lower, 0},
	{"sharded.write_overhead_ns", "ns", lower, 0},
	{"sharded.shard_size_skew", "ratio", lower, 0},
	{"sharded.parallel_write_ops_per_s", "1/s", higher, 0},

	{"durable.write_overhead_ns", "ns", lower, 0},
	{"durable.io_overhead_ns", "ns", lower, 0},
	{"durable.chunks_written_per_ckpt", "count", lower, 0},
	{"durable.chunks_reused_per_ckpt", "count", higher, 0},
	{"durable.recover_load_s", "s", lower, 0},
	{"durable.replay_ns_per_record", "ns", lower, 0},
	{"durable.auto_ckpt_write_ops_per_s", "1/s", higher, 0},
	{"durable.auto_ckpt_page_writes", "count", lower, 0},

	{"wal.write_calls", "count", lower, 0},
	{"wal.bytes_per_op", "B", lower, 0},
	{"wal.write_ns_mean", "ns", lower, 0},
	{"wal.syncs", "count", lower, 0},
	{"wal.sync_ns_mean", "ns", lower, 0},
	{"wal.group_size", "count", higher, 0},

	{"pager.page_writes", "count", lower, 0},
	{"pager.page_reads", "count", lower, 0},
	{"pager.syncs", "count", lower, 0},
	{"pager.write_ns_total", "ns", lower, 0},
	{"pager.bytes_written_per_user_byte", "ratio", lower, 0},
	{"pager.store_bytes_per_user_byte", "ratio", lower, 0},

	{"baseline.binsearch_lookup_ns", "ns", lower, 0},
	{"baseline.btree_lookup_ns", "ns", lower, 0},
	{"baseline.btree_index_bytes", "B", lower, 0},

	{"ladder.mixed_rw.tree_ns_per_op", "ns", lower, 0},
	{"ladder.mixed_rw.optimistic_ns_per_op", "ns", lower, 0},
	{"ladder.mixed_rw.sharded_ns_per_op", "ns", lower, 0},
	{"ladder.mixed_rw.durable_mem_ns_per_op", "ns", lower, 0},
	{"ladder.mixed_rw.durable_dir_ns_per_op", "ns", lower, 0},
	{"ladder.durable_ingest.tree_ns_per_op", "ns", lower, 0},
	{"ladder.durable_ingest.optimistic_ns_per_op", "ns", lower, 0},
	{"ladder.durable_ingest.sharded_ns_per_op", "ns", lower, 0},
	{"ladder.durable_ingest.durable_mem_ns_per_op", "ns", lower, 0},
	{"ladder.durable_ingest.durable_dir_ns_per_op", "ns", lower, 0},

	{"trace.overhead_share", "ratio", lower, 0},
	{"machine.speed", "ratio", higher, 0},
}

// countMetrics are the per-layer counts that one client, inline folds and
// harness-driven checkpoints make repeat exactly from run to run.
var countMetrics = []string{
	"segment.segments",
	"core.mergecow_pages_per_kop",
	"optimistic.folds",
	"optimistic.pages_after_ingest",
	"durable.chunks_written_per_ckpt", "durable.chunks_reused_per_ckpt",
	"wal.write_calls", "wal.bytes_per_op", "wal.syncs", "wal.group_size",
	"pager.page_writes", "pager.page_reads", "pager.syncs",
	"pager.bytes_written_per_user_byte",
}

func defsByName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bounds: the zero Bound is left out
}

func writeManifest(w io.Writer) error {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: refSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
