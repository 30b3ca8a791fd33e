package core

import "fitingtree/internal/num"

// This file defines value-aware tombstones. The original delta protocol
// knew a single tombstone shape — "delete the first N live matches of a
// key in scan order" (MergeOp.Dels) — which makes the victim among
// distinct-valued duplicates depend on where flush boundaries fell when
// the delete was recorded. Value tombstones name their victim: each one
// deletes the first live match carrying an equal value. An ordered list
// mixing both shapes composes exactly across layers (concatenation of
// lower list then upper list is the composed list, once upper entries
// that land on a lower add are cancelled against that add — see
// CompactOps), which is what lets the frozen-layer ladder compact
// value-aware deletes without materializing the tree beneath.

// Tomb is one ordered tombstone of a value-aware delete. An Any tombstone
// deletes the first live match of its key in scan order, like one unit of
// MergeOp.Dels; a value tombstone (Any false) deletes the first live
// match whose value equals Val under Go equality. Value tombstones
// require a comparable value type; applying one to a non-comparable V
// panics, so facades only record them when V is comparable.
type Tomb[V any] struct {
	Any bool
	Val V
}

// valueEq compares two values under Go's == on their dynamic type. It
// panics for non-comparable V; every code path that can reach it is
// gated on valuesComparable.
func valueEq[V any](a, b V) bool { return any(a) == any(b) }

// TombSet tracks the unconsumed tombstones of one delta entry during a
// streaming application over a key's live matches in scan order. Build
// one with NewTombSet and feed it each match via Consume; the facade's
// read overlays and the COW merge share this logic so every path applies
// identical semantics.
//
// The streaming rule — each match is consumed by the first unconsumed
// list entry that accepts it — produces exactly the sequential semantics
// (entry 1 deletes the first match it accepts among all matches, entry 2
// the first among the remainder, and so on): an exchange argument shows
// any match consumed under one rule is consumed under the other, because
// an Any entry accepts everything an earlier-positioned value entry
// rejects.
type TombSet[V any] struct {
	rem   int       // count form: ANY tombstones left
	tombs []Tomb[V] // list form (nil in count form)
	used  []bool    // consumed flags, parallel to tombs
}

// newTombSets builds per-op application state. Ops with a Tombs list use
// list matching; ops with only Dels use the counter fast path.
func newTombSets[K num.Key, V any](ops []MergeOp[K, V]) []TombSet[V] {
	ts := make([]TombSet[V], len(ops))
	for i, op := range ops {
		if len(op.Tombs) > 0 {
			ts[i] = TombSet[V]{tombs: op.Tombs, used: make([]bool, len(op.Tombs))}
		} else {
			ts[i] = TombSet[V]{rem: op.Dels}
		}
	}
	return ts
}

// NewTombSet builds application state for one entry's tombstones: a
// counted form (dels anonymous tombstones) when tombs is nil, the
// ordered list form otherwise.
func NewTombSet[V any](dels int, tombs []Tomb[V]) TombSet[V] {
	if len(tombs) > 0 {
		return TombSet[V]{tombs: tombs, used: make([]bool, len(tombs))}
	}
	return TombSet[V]{rem: dels}
}

// Consume reports whether the next live match (carrying value v) is
// deleted by this entry's tombstones, consuming the accepting tombstone.
func (s *TombSet[V]) Consume(v V) bool {
	if s.tombs == nil {
		if s.rem > 0 {
			s.rem--
			return true
		}
		return false
	}
	for i, t := range s.tombs {
		if !s.used[i] && (t.Any || valueEq(t.Val, v)) {
			s.used[i] = true
			return true
		}
	}
	return false
}

// applyTombs filters a key's live matches (vals, scan order) through a
// tombstone list under the streaming rule, appending survivors to out and
// returning it with the number of matches consumed.
func applyTombs[V any](out []V, vals []V, s *TombSet[V]) ([]V, int) {
	deleted := 0
	for _, v := range vals {
		if s.Consume(v) {
			deleted++
			continue
		}
		out = append(out, v)
	}
	return out, deleted
}
