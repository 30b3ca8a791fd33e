package bench

import (
	"fmt"
	"io"
	"time"

	"fitingtree/internal/core"
	"fitingtree/internal/workload"
	"fitingtree/keycodec"
)

// StringsPoint is one measurement of the ordered-bytes key experiment:
// the same Weblogs dataset indexed under native uint64 keys and under
// their keycodec.Uint64 string encodings, at one error threshold.
type StringsPoint struct {
	KeyKind   string  `json:"key_kind"` // uint64 | string
	Error     int     `json:"error"`
	Segments  int     `json:"segments"`
	IndexSize int64   `json:"index_size_bytes"`
	LookupNs  float64 `json:"lookup_ns"`
	ScanNs    float64 `json:"scan_ns_per_row"`
	InsertNs  float64 `json:"insert_ns_per_op"`
	// LookupOverhead is this row's lookup cost relative to the uint64 row
	// at the same error threshold (1.0 for the uint64 rows themselves).
	LookupOverhead float64 `json:"lookup_overhead_vs_uint64"`
}

// ExtStrings is the ordered-bytes key extension experiment: it indexes
// the same sorted column twice — once under native uint64 keys, once
// under their order-preserving keycodec.Uint64 encodings — and compares
// segment counts, lookup latency, range-scan rate, and insert cost. The
// codec preserves order exactly, so both trees hold identical content in
// identical order; the string rows pay only for byte-wise comparisons
// and the truncated-prefix Approx interpolation: the start arrays compare
// 8-byte prefixes first and the pages' prefix sidecars let string probes
// run on contiguous integers, touching string bytes only on prefix ties.
func ExtStrings(w io.Writer, cfg Config) []StringsPoint {
	cfg = cfg.withDefaults()
	keys := workload.Weblogs(cfg.N, cfg.Seed)
	vals := positions(len(keys))
	skeys := make([]string, len(keys))
	for i, k := range keys {
		skeys[i] = keycodec.Uint64(k)
	}

	probes := Probes(keys, cfg.Probes, cfg.Seed+47)
	sprobes := make([]string, len(probes))
	for i, k := range probes {
		sprobes[i] = keycodec.Uint64(k)
	}
	const span = 100 // rows per range scan
	scans := num2(cfg.Probes/50, 1_000)
	starts := make([]uint64, scans)
	{
		srng := Probes(positions(len(keys)-span-1), scans, cfg.Seed+53)
		copy(starts, srng)
	}
	inserts := num2(cfg.N/10, 10_000)
	if cfg.Quick {
		inserts = num2(cfg.N/20, 5_000)
	}

	t := NewTable(fmt.Sprintf("Extension: ordered-bytes string keys vs native uint64 (Weblogs, n=%d)", cfg.N),
		"keys", "error", "segments", "IndexSize", "ns/lookup", "ns/scan-row", "ns/insert", "overhead")
	var points []StringsPoint

	errs := []int{10, 100, 1000}
	if cfg.Quick {
		errs = []int{100}
	}
	for _, e := range errs {
		opts := core.Options{Error: e, BufferSize: 8}
		ut, err := core.BulkLoad(keys, vals, opts)
		if err != nil {
			panic(err)
		}
		st, err := core.BulkLoad(skeys, vals, opts)
		if err != nil {
			panic(err)
		}

		// The two key kinds are measured in tight alternation and each
		// keeps its fastest repetition: machine noise only ever slows a
		// run down and hits whatever happens to be running, so
		// interleaved minima are the fair basis for the overhead ratio.
		const reps = 5
		var uLook, sLook, uScan, sScan float64
		for r := 0; r < reps; r++ {
			if ns := LookupNs(ut.Lookup, probes, cfg.MinMeasure); r == 0 || ns < uLook {
				uLook = ns
			}
			if ns := LookupNs(st.Lookup, sprobes, cfg.MinMeasure); r == 0 || ns < sLook {
				sLook = ns
			}
			uNs := LookupNs(func(s uint64) (int, bool) {
				n := 0
				ut.AscendRange(keys[s], keys[int(s)+span], func(uint64, uint64) bool { n++; return true })
				return n, true
			}, starts, cfg.MinMeasure) / span
			if r == 0 || uNs < uScan {
				uScan = uNs
			}
			sNs := LookupNs(func(s uint64) (int, bool) {
				n := 0
				st.AscendRange(skeys[s], skeys[int(s)+span], func(string, uint64) bool { n++; return true })
				return n, true
			}, starts, cfg.MinMeasure) / span
			if r == 0 || sNs < sScan {
				sScan = sNs
			}
		}

		ins := Probes(keys, inserts, cfg.Seed+59)
		begin := time.Now()
		for _, k := range ins {
			ut.Insert(k|1, 0)
		}
		uIns := float64(time.Since(begin).Nanoseconds()) / float64(len(ins))
		begin = time.Now()
		for _, k := range ins {
			st.Insert(keycodec.Uint64(k|1), 0)
		}
		sIns := float64(time.Since(begin).Nanoseconds()) / float64(len(ins))

		for _, row := range []struct {
			kind           string
			stats          core.Stats
			look, scan, in float64
		}{
			{"uint64", ut.Stats(), uLook, uScan, uIns},
			{"string", st.Stats(), sLook, sScan, sIns},
		} {
			over := 1.0
			if row.kind == "string" && uLook > 0 {
				over = sLook / uLook
			}
			points = append(points, StringsPoint{
				KeyKind: row.kind, Error: e,
				Segments: row.stats.Pages, IndexSize: row.stats.IndexSize,
				LookupNs: row.look, ScanNs: row.scan, InsertNs: row.in,
				LookupOverhead: over,
			})
			t.Add(row.kind, e, row.stats.Pages, HumanBytes(row.stats.IndexSize),
				row.look, row.scan, row.in, over)
		}
	}
	t.Print(w)
	return points
}
