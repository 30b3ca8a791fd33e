package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWALOpen opens arbitrary bytes as a log over a MemFS — the frame scan
// every recovery starts with. The contract under fuzzing: no panic; the
// intact prefix and the cut-off tail add up to the input; replayed LSNs
// are consecutive; a reopen of the repaired file replays the same records
// with nothing torn; and one Append, Sync and reopen adds exactly one
// record, with the next LSN.
func FuzzWALOpen(f *testing.F) {
	var clean []byte
	for i := 0; i < 4; i++ {
		clean = appendFrame(clean, uint64(7+i), []byte("record payload"[:3+i]))
	}
	flipped := bytes.Clone(clean)
	flipped[recordHeader+3+4] ^= 0x20 // the second frame's CRC
	oversized := bytes.Clone(clean)
	binary.LittleEndian.PutUint32(oversized[len(oversized)-recordHeader-6:], maxRecordSize+1)
	for _, seed := range [][]byte{clean, clean[:len(clean)-5], flipped, oversized, nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const name = "wal.log"
		fsys := NewMemFS()
		fsys.SetBytes(name, data)
		l, recs, stats, err := Open(fsys, name)
		if err != nil {
			t.Fatal(err)
		}
		if stats.TruncatedAt+stats.TornBytes != len(data) {
			t.Fatalf("TruncatedAt %d + TornBytes %d != %d input bytes", stats.TruncatedAt, stats.TornBytes, len(data))
		}
		if stats.Records != len(recs) {
			t.Fatalf("stats count %d records, %d replayed", stats.Records, len(recs))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].LSN != recs[i-1].LSN+1 {
				t.Fatalf("record %d has LSN %d after %d", i, recs[i].LSN, recs[i-1].LSN)
			}
		}
		l.Close()

		l, again, stats, err := Open(fsys, name)
		if err != nil {
			t.Fatal(err)
		}
		if stats.TornBytes != 0 || !sameRecords(again, recs) {
			t.Fatalf("the repaired log reopens with %d records and %d torn bytes, want %d and 0",
				len(again), stats.TornBytes, len(recs))
		}
		next := uint64(0)
		if n := len(recs); n > 0 {
			next = recs[n-1].LSN + 1
		}
		payload := []byte("appended")
		if lsn, err := l.Append(payload); err != nil || lsn != next {
			t.Fatalf("Append = %d, %v; want LSN %d", lsn, err, next)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		_, after, _, err := Open(fsys, name)
		if err != nil {
			t.Fatal(err)
		}
		want := append(recs[:len(recs):len(recs)], Record{LSN: next, Payload: payload})
		if !sameRecords(after, want) {
			t.Fatalf("after one Append the log replays %d records, want %d ending at LSN %d", len(after), len(want), next)
		}
	})
}

// sameRecords reports whether a and b hold the same LSNs and payloads.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].LSN != b[i].LSN || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}
