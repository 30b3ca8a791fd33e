package core

import "fitingtree/internal/num"

// CompactOps composes two adjacent delta layers into a single op list
// with the same meaning as applying lower and then upper: the result's
// tombstones are relative to the view beneath lower, exactly as lower's
// were, so MergeCOW(CompactOps(lower, upper, each)) publishes the same
// content as MergeCOW(lower, upper). Both inputs must be sorted by
// strictly ascending Key (MergeOp form); the output is too.
//
// The composition is per-key arithmetic except for one case that needs
// the tree: upper's tombstones consume, in scan order, the base matches
// that survive lower's tombstones *before* they consume lower's adds.
// When upper deletes under a key where lower also has pending adds, the
// split between "more base tombstones" and "drop lower's pending adds"
// depends on the live base matches beneath lower. eachBeneath streams
// those matches for a key, in scan order, until fn returns false; it is
// consulted only for such ambiguous keys, and the run it yields is read
// whole. Both layers' tombstones are taken in list form (a count becomes
// that many Any entries): lower's list is applied to the base matches,
// and upper's is streamed over survivors-then-adds, cancelling each upper
// entry that lands on a lower add against that add and appending the
// entries that land on base to the composed list — preserving the
// recorded order of lower's tombstones before upper's. When lower has no
// adds, every upper tombstone must land on a base match — the write path
// only records a tombstone when a live victim exists beneath it, and
// compactions preserve content — so no enumeration is needed.
//
// Keys whose composed entry carries no adds and no tombstones (an insert
// fully cancelled by a later delete) are dropped from the result.
func CompactOps[K num.Key, V any](lower, upper []MergeOp[K, V], eachBeneath func(k K, fn func(V) bool)) []MergeOp[K, V] {
	out := make([]MergeOp[K, V], 0, len(lower)+len(upper))
	i, j := 0, 0
	for i < len(lower) || j < len(upper) {
		switch {
		case j >= len(upper) || (i < len(lower) && lower[i].Key < upper[j].Key):
			out = append(out, lower[i])
			i++
		case i >= len(lower) || upper[j].Key < lower[i].Key:
			out = append(out, upper[j])
			j++
		default:
			lo, up := lower[i], upper[j]
			i++
			j++
			if op := compose(lo, up, eachBeneath); op.Dels > 0 || len(op.Tombs) > 0 || len(op.Adds) > 0 {
				out = append(out, op)
			}
		}
	}
	return out
}

// compose composes one key's entries in the list form: counted entries
// are folded in as Any entries, preserving recording order (lower's
// tombstones before upper's), and a result whose entries are all Any goes
// back to the counted form.
func compose[K num.Key, V any](lo, up MergeOp[K, V], eachBeneath func(k K, fn func(V) bool)) MergeOp[K, V] {
	upList := asTombList(up)
	composed := asTombList(lo)
	adds := lo.Adds
	if len(upList) > 0 && len(lo.Adds) > 0 {
		// Ambiguous: upper's entries may land on base survivors (keeping
		// the entry, now relative to beneath-lower) or on lower's adds
		// (cancelling entry and add together). Materialize the base
		// matches — value entries can reach arbitrarily deep into the
		// run — apply lower, and stream upper over survivors-then-adds.
		var base []V
		eachBeneath(lo.Key, func(v V) bool {
			base = append(base, v)
			return true
		})
		loSet := NewTombSet(0, composed)
		survivors, _ := applyTombs(nil, base, &loSet)
		upSet := NewTombSet(0, upList)
		composed = composed[:len(composed):len(composed)]
		for _, v := range survivors {
			for ti, tb := range upSet.tombs {
				if !upSet.used[ti] && (tb.Any || valueEq(tb.Val, v)) {
					upSet.used[ti] = true
					composed = append(composed, tb)
					break
				}
			}
		}
		kept := make([]V, 0, len(lo.Adds))
		for _, v := range lo.Adds {
			if upSet.Consume(v) {
				continue
			}
			kept = append(kept, v)
		}
		adds = kept
		// Upper entries that consumed nothing have no victim beneath this
		// op's level; like the counted form's clamp, they are dropped
		// rather than left to delete a future, unrelated write.
	} else {
		composed = append(composed[:len(composed):len(composed)], upList...)
	}
	if len(up.Adds) > 0 {
		merged := make([]V, 0, len(adds)+len(up.Adds))
		merged = append(merged, adds...)
		merged = append(merged, up.Adds...)
		adds = merged
	}
	op := MergeOp[K, V]{Key: lo.Key, Adds: adds, Tombs: composed}
	if allAny(op.Tombs) {
		op.Dels, op.Tombs = len(op.Tombs), nil
	}
	return op
}

// asTombList returns an op's tombstones in list form, expanding a counted
// op into Any entries.
func asTombList[K num.Key, V any](op MergeOp[K, V]) []Tomb[V] {
	if len(op.Tombs) > 0 {
		return op.Tombs
	}
	if op.Dels == 0 {
		return nil
	}
	list := make([]Tomb[V], op.Dels)
	for i := range list {
		list[i].Any = true
	}
	return list
}

// allAny reports whether every entry of a tombstone list is anonymous, in
// which case the counted form represents it exactly.
func allAny[V any](tombs []Tomb[V]) bool {
	for _, t := range tombs {
		if !t.Any {
			return false
		}
	}
	return true
}
