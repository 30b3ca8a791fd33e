package fitingtree

import (
	"fmt"
	"sort"

	"fitingtree/internal/core"
)

// Index is the backend contract a Secondary maintains its postings
// through: any key-ordered multimap with value-addressed deletes. The
// in-memory tree flavors of this module satisfy it — the plain *Tree
// (single-goroutine, cheapest), *Optimistic (lock-free reads, background
// flush), and *Sharded (parallel writers) —
// so an index can be maintained under whatever concurrency regime its
// heap table lives under. DeleteValue is what makes posting maintenance
// exact: among duplicate keys it removes the posting naming a specific
// row, never an arbitrary one.
type Index[K Key, V any] interface {
	Insert(k K, v V)
	DeleteValue(k K, v V) bool
	Each(k K, fn func(v V) bool)
	AscendRange(lo, hi K, fn func(k K, v V) bool)
	Len() int
}

// Secondary is a non-clustered FITing-Tree index over an attribute of an
// unsorted heap table (Section 2.2.1, Figure 3 of the paper).
//
// Unlike the clustered case, the indexed column is not sorted and may
// contain duplicates, so the index adds one level: sorted key pages that
// store (key, row) postings. That level is segmented with the same
// error-bounded algorithm as a clustered index — it is simply a
// FITing-Tree whose values are row identifiers. Row is the posting
// payload (a row id, an offset, a primary key…) and must be comparable:
// Delete removes the posting for one specific row among duplicates via
// the backend's DeleteValue.
//
// Concurrency follows the backend: over *Optimistic or *Sharded an index
// accepts Insert/Delete from concurrent writers while readers run
// Rows/RangeRows, with each posting mutation atomic exactly
// as the backend's writes are. The index itself adds no locking, so a
// heap mutation and its posting update are made transactional by
// whatever discipline guards the heap (see the secondary example).
type Secondary[K Key, Row comparable] struct {
	idx Index[K, Row]
}

// NewSecondary wraps a backend as a secondary index. The backend should
// be empty or already hold valid (key, row) postings; the caller keeps
// ownership of backend configuration (flush tuning, Close, …).
func NewSecondary[K Key, Row comparable](backend Index[K, Row]) *Secondary[K, Row] {
	return &Secondary[K, Row]{idx: backend}
}

// BuildSecondary creates an index over column eagerly: postings are
// sorted and bulk-loaded through the paper's one-pass segmentation into a
// plain *Tree backend, the cheapest build path. The posting stored for
// column[i] is row id i; the column is not modified. Wrap the result's
// Backend in a concurrent facade — or build into one directly with
// NewSecondary — when the index must take writes under concurrency.
func BuildSecondary[K Key](column []K, opts Options) (*Secondary[K, int], error) {
	type pair struct {
		k   K
		row int
	}
	pairs := make([]pair, len(column))
	for i, k := range column {
		pairs[i] = pair{k, i}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].k != pairs[j].k {
			return pairs[i].k < pairs[j].k
		}
		return pairs[i].row < pairs[j].row
	})
	keys := make([]K, len(pairs))
	rows := make([]int, len(pairs))
	for i, p := range pairs {
		keys[i] = p.k
		rows[i] = p.row
	}
	t, err := core.BulkLoad(keys, rows, opts)
	if err != nil {
		return nil, fmt.Errorf("secondary: %w", err)
	}
	return &Secondary[K, int]{idx: t}, nil
}

// Backend returns the index's underlying tree, for backend-specific
// operations (Stats, SyncFlush, Close, …) the Index contract omits.
func (s *Secondary[K, Row]) Backend() Index[K, Row] { return s.idx }

// Insert registers that row holds key k (e.g. after appending a row to
// the heap table).
func (s *Secondary[K, Row]) Insert(k K, row Row) { s.idx.Insert(k, row) }

// Delete removes the (k, row) posting, reporting whether it was found.
// Because several rows can hold the same key, the row must match too —
// the backend's DeleteValue guarantees no other row's posting is
// victimized regardless of flush timing.
func (s *Secondary[K, Row]) Delete(k K, row Row) bool {
	return s.idx.DeleteValue(k, row)
}

// Rows returns every row whose indexed attribute equals k, in index
// order.
func (s *Secondary[K, Row]) Rows(k K) []Row {
	var rows []Row
	s.idx.Each(k, func(r Row) bool {
		rows = append(rows, r)
		return true
	})
	return rows
}

// RangeRows calls fn with the key and row of every posting with
// lo <= key <= hi in key order, stopping early if fn returns false. Row
// fetches from the heap table are random accesses, as with any
// non-clustered index (Section 4.2).
func (s *Secondary[K, Row]) RangeRows(lo, hi K, fn func(k K, row Row) bool) {
	s.idx.AscendRange(lo, hi, fn)
}

// Len returns the number of postings.
func (s *Secondary[K, Row]) Len() int { return s.idx.Len() }

// Stats returns the statistics of the key-page level when the backend
// exposes them (all four tree flavors do), and the zero Stats otherwise.
func (s *Secondary[K, Row]) Stats() Stats {
	if st, ok := s.idx.(interface{ Stats() Stats }); ok {
		return st.Stats()
	}
	return Stats{}
}

// CheckInvariants validates the backend when it supports validation (the
// plain *Tree does); it returns nil otherwise.
func (s *Secondary[K, Row]) CheckInvariants() error {
	if ci, ok := s.idx.(interface{ CheckInvariants() error }); ok {
		return ci.CheckInvariants()
	}
	return nil
}
