// Command fitcli is a small interactive demonstration of the FITing-Tree
// public API: it builds an index over a generated dataset and answers
// point, range, and stats commands from stdin.
//
// Usage:
//
//	fitcli -dataset iot -n 1000000 -error 100
//
// Commands (one per line):
//
//	get <key>          point lookup
//	range <lo> <hi>    count elements in [lo, hi]
//	insert <key>       insert a key
//	delete <key>       delete a key
//	stats              index statistics and maintenance counters
//	quit
//
// The durable subcommands exercise the WAL + checkpoint storage engine
// end to end:
//
//	fitcli save -dir store -dataset iot -n 100000   bulk-build and persist
//	fitcli load -dir store                          open and run the shell
//	fitcli recover -dir store                       recover, checkpoint, report
//	fitcli pump -dir store -start 0 -count 10000    append keys, ack each
//	fitcli scrub -dir store                         verify checkpoint integrity
//
// pump acknowledges a key once its group commit (-sync-every N writes) is
// durable; its delta flushes at the tree's own threshold, which is derived
// from the page count and has no flag.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"fitingtree"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
	"fitingtree/internal/workload"
)

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		var err error
		switch os.Args[1] {
		case "save":
			err = cmdSave(os.Args[2:])
		case "load":
			err = cmdLoad(os.Args[2:])
		case "recover":
			err = cmdRecover(os.Args[2:])
		case "pump":
			err = cmdPump(os.Args[2:])
		case "scrub":
			err = cmdScrub(os.Args[2:])
		default:
			fmt.Fprintf(os.Stderr, "fitcli: unknown command %q (save, load, recover, pump, scrub)\n", os.Args[1])
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fitcli:", err)
			os.Exit(1)
		}
		return
	}

	var (
		dataset = flag.String("dataset", "iot", "dataset: iot, weblogs, taxi")
		n       = flag.Int("n", 1_000_000, "dataset size")
		errT    = flag.Int("error", 100, "error threshold")
		seed    = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	keys, err := datasetKeys(*dataset, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fitcli:", err)
		os.Exit(2)
	}
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: *errT, BufferSize: -1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fitcli:", err)
		os.Exit(1)
	}
	st := t.Stats()
	fmt.Printf("loaded %d %s keys: %d segments, index %d bytes (data %d bytes)\n",
		t.Len(), *dataset, st.Pages, st.IndexSize, st.DataSize)

	runShell(treeIndex{t}, os.Stdin, os.Stdout)
}

// datasetKeys generates one of the named paper workloads.
func datasetKeys(dataset string, n int, seed int64) ([]uint64, error) {
	switch dataset {
	case "iot":
		return workload.IoT(n, seed), nil
	case "weblogs":
		return workload.Weblogs(n, seed), nil
	case "taxi":
		return workload.TaxiPickupTime(n, seed), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", dataset)
}

// openStore opens the WAL directory and page file backing a durable store
// rooted at dir.
func openStore(dir string) (*wal.DirFS, *pager.FileDisk, error) {
	fsys, err := wal.NewDirFS(dir)
	if err != nil {
		return nil, nil, err
	}
	dev, err := pager.OpenFileDisk(filepath.Join(dir, "pages.db"))
	if err != nil {
		return nil, nil, err
	}
	return fsys, dev, nil
}

// cmdSave bulk-builds a dataset and persists it as a durable store: an
// initial full checkpoint, an empty WAL.
func cmdSave(args []string) error {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "store directory (required)")
		dataset = fs.String("dataset", "iot", "dataset: iot, weblogs, taxi")
		n       = fs.Int("n", 100_000, "dataset size")
		errT    = fs.Int("error", 100, "error threshold")
		seed    = fs.Int64("seed", 1, "workload seed")
	)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("save: -dir is required")
	}
	keys, err := datasetKeys(*dataset, *n, *seed)
	if err != nil {
		return err
	}
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	t, err := fitingtree.BulkLoad(keys, vals, fitingtree.Options{Error: *errT})
	if err != nil {
		return err
	}
	fsys, dev, err := openStore(*dir)
	if err != nil {
		return err
	}
	defer dev.Close()
	d, err := fitingtree.CreateDurableSharded(fsys, dev, t, 1)
	if err != nil {
		return err
	}
	if err := d.Close(); err != nil {
		return err
	}
	fmt.Printf("saved %d %s keys to %s (%d pages)\n", len(keys), *dataset, *dir, dev.NumPages())
	return nil
}

// cmdLoad opens a durable store and runs the interactive shell over it.
func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("load: -dir is required")
	}
	fsys, dev, err := openStore(*dir)
	if err != nil {
		return err
	}
	defer dev.Close()
	d, err := fitingtree.OpenDurableSharded[uint64, uint64](fsys, dev, fitingtree.Options{}, 1)
	if err != nil {
		return err
	}
	fmt.Printf("opened %s: %d elements, wal tail %d records\n", *dir, d.Len(), d.Stats().WALRecords)
	runShell(d, os.Stdin, os.Stdout)
	return d.Close()
}

// cmdRecover opens a durable store (checkpoint load, then each shard's WAL
// tail composed into one frozen layer), reports what recovery found, folds
// the tails and checkpoints so the next open starts from a clean,
// truncated log.
func cmdRecover(args []string) error {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("recover: -dir is required")
	}
	fsys, dev, err := openStore(*dir)
	if err != nil {
		return err
	}
	defer dev.Close()
	d, err := fitingtree.OpenDurableSharded[uint64, uint64](fsys, dev, fitingtree.Options{}, 1)
	if err != nil {
		return err
	}
	opened := d.Stats()
	// Fold the tails first: a cut folds pending layers without publishing
	// them, so Close's cut would fold and write the same chunks again.
	d.SyncFlush()
	stats, err := d.Checkpoint()
	if err != nil {
		d.Close()
		return err
	}
	fmt.Printf("recovered %d elements from %s (wal tail %d records)\n", d.Len(), *dir, opened.WALRecords)
	fmt.Printf("wal open: %d records, %d corrupt frames", opened.WALReplayed, opened.WALCorruptFrames)
	if opened.WALTornBytes > 0 {
		fmt.Printf(", repaired by cutting %d trailing bytes", opened.WALTornBytes)
	}
	fmt.Println()
	fmt.Printf("checkpoint: %d chunks written, %d reused, wal now %d records\n",
		stats.ChunksWritten, stats.ChunksReused, d.Stats().WALRecords)
	return d.Close()
}

// cmdScrub opens the page file read-only and verifies the committed
// checkpoint end to end: both superblocks, every live blob page chain's
// CRCs, every chunk's decode, and the reassembled trees' structural
// invariants. The WAL is untouched.
func cmdScrub(args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("scrub: -dir is required")
	}
	dev, err := pager.OpenFileDisk(filepath.Join(*dir, "pages.db"))
	if err != nil {
		return err
	}
	defer dev.Close()
	rep, err := fitingtree.Scrub[uint64, uint64](dev)
	if rep != nil {
		for slot, s := range rep.Supers {
			if s.Valid {
				fmt.Printf("superblock %d: ok, epoch %d\n", slot, s.Epoch)
			} else {
				fmt.Printf("superblock %d: invalid\n", slot)
			}
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint epoch %d: generation %d, %d shards, %d chunks, %d elements\n",
		rep.Epoch, rep.Generation, rep.Shards, len(rep.Chunks), rep.Elements)
	for _, c := range rep.Chunks {
		fmt.Printf("  shard %d chunk %d: %d pages, %d bytes, %d elements ok\n",
			c.Shard, c.Index, c.Pages, c.Bytes, c.Elements)
	}
	fmt.Printf("%d live pages verified (%d manifest) of %d in file\n",
		rep.LivePages, rep.ManifestPages, dev.NumPages())
	return nil
}

// cmdPump appends sequential keys to a durable store, printing an "acked"
// line after each write is durable. A crash test kills the process
// mid-stream and verifies every acked key survives recovery.
func cmdPump(args []string) error {
	fs := flag.NewFlagSet("pump", flag.ExitOnError)
	var (
		dir       = fs.String("dir", "", "store directory (required)")
		start     = fs.Uint64("start", 0, "first key")
		count     = fs.Int("count", 10_000, "number of keys to insert")
		syncEvery = fs.Int("sync-every", 1, "group-commit batch size")
	)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("pump: -dir is required")
	}
	fsys, dev, err := openStore(*dir)
	if err != nil {
		return err
	}
	defer dev.Close()
	d, err := fitingtree.OpenDurableSharded[uint64, uint64](fsys, dev, fitingtree.Options{}, 1)
	if err != nil {
		return err
	}
	d.SetSyncEvery(*syncEvery)
	out := bufio.NewWriter(os.Stdout)
	pending := 0
	for i := 0; i < *count; i++ {
		k := *start + uint64(i)
		if err := d.Insert(k, k); err != nil {
			return err
		}
		pending++
		if pending >= *syncEvery {
			// Sync is the acknowledgment point: once it returns nil every
			// key inserted so far is durable and can be acknowledged.
			if err := d.Sync(); err != nil {
				return err
			}
			for j := i - pending + 1; j <= i; j++ {
				fmt.Fprintf(out, "acked %d\n", *start+uint64(j))
			}
			out.Flush()
			pending = 0
		}
	}
	if err := d.Sync(); err != nil {
		return err
	}
	for j := *count - pending; j < *count; j++ {
		fmt.Fprintf(out, "acked %d\n", *start+uint64(j))
	}
	out.Flush()
	return d.Close()
}

// shellIndex is what the command loop needs from an index. A bare tree
// reaches it through treeIndex; a durable store satisfies it (and
// durableIndex) directly.
type shellIndex interface {
	Lookup(k uint64) (uint64, bool)
	AscendRange(lo, hi uint64, fn func(k, v uint64) bool)
	Stats() fitingtree.Stats
	Insert(k, v uint64) error
	Delete(k uint64) (bool, error)
}

// durableIndex is the durable store's extra: the checkpoint command.
type durableIndex interface {
	shellIndex
	Checkpoint() (fitingtree.CheckpointStats, error)
}

// treeIndex adapts a bare tree, whose writes cannot fail.
type treeIndex struct {
	*fitingtree.Tree[uint64, uint64]
}

func (t treeIndex) Insert(k, v uint64) error      { t.Tree.Insert(k, v); return nil }
func (t treeIndex) Delete(k uint64) (bool, error) { return t.Tree.Delete(k), nil }

// runShell executes commands from in against idx, writing replies to out,
// until EOF or the quit command.
func runShell(idx shellIndex, in io.Reader, out io.Writer) {
	durable, _ := idx.(durableIndex)
	help := "commands: get, range, insert, delete, stats, quit"
	if durable != nil {
		help = "commands: get, range, insert, delete, checkpoint, stats, quit"
	}
	sc := bufio.NewScanner(in)
	fmt.Fprint(out, "> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Fprint(out, "> ")
			continue
		}
		switch fields[0] {
		case "get":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: get <key>")
				break
			}
			k, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Fprintln(out, "bad key:", err)
				break
			}
			if v, ok := idx.Lookup(k); ok {
				fmt.Fprintf(out, "key %d -> value %d\n", k, v)
			} else {
				fmt.Fprintf(out, "key %d not found\n", k)
			}
		case "range":
			if len(fields) != 3 {
				fmt.Fprintln(out, "usage: range <lo> <hi>")
				break
			}
			lo, err1 := strconv.ParseUint(fields[1], 10, 64)
			hi, err2 := strconv.ParseUint(fields[2], 10, 64)
			if err1 != nil || err2 != nil {
				fmt.Fprintln(out, "bad bounds")
				break
			}
			count := 0
			idx.AscendRange(lo, hi, func(uint64, uint64) bool { count++; return true })
			fmt.Fprintf(out, "%d elements in [%d, %d]\n", count, lo, hi)
		case "insert":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: insert <key>")
				break
			}
			k, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Fprintln(out, "bad key:", err)
				break
			}
			if err := idx.Insert(k, 0); err != nil {
				fmt.Fprintln(out, "insert failed:", err)
				break
			}
			fmt.Fprintln(out, "ok")
		case "delete":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: delete <key>")
				break
			}
			k, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				fmt.Fprintln(out, "bad key:", err)
				break
			}
			found, err := idx.Delete(k)
			if err != nil {
				fmt.Fprintln(out, "delete failed:", err)
				break
			}
			fmt.Fprintln(out, "deleted:", found)
		case "checkpoint":
			if durable == nil {
				fmt.Fprintln(out, help)
				break
			}
			stats, err := durable.Checkpoint()
			if err != nil {
				fmt.Fprintln(out, "checkpoint failed:", err)
				break
			}
			fmt.Fprintf(out, "checkpoint: %d chunks written, %d reused\n",
				stats.ChunksWritten, stats.ChunksReused)
		case "stats":
			st := idx.Stats()
			fmt.Fprintf(out, "elements=%d pages=%d buffered=%d index=%dB data=%dB",
				st.Elements, st.Pages, st.Buffered, st.IndexSize, st.DataSize)
			if durable != nil {
				fmt.Fprintf(out, " wal=%d", st.WALRecords)
			}
			// Refits over pages_made is the share of rebuilt pages that kept
			// their line.
			fmt.Fprintf(out, " merges=%d pages_made=%d refits=%d\n",
				st.Counters.Merges, st.Counters.PagesMade, st.Counters.Refits)
		case "quit", "exit":
			return
		default:
			fmt.Fprintln(out, help)
		}
		fmt.Fprint(out, "> ")
	}
}
