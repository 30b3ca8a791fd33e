// An external test package: it checks the model's predictions against real
// trees built by package core.
package costmodel_test

import (
	"testing"

	"fitingtree/internal/btree"
	"fitingtree/internal/core"
	"fitingtree/internal/costmodel"
	"fitingtree/internal/workload"
)

// TestSizeIsUpperBoundOfActual is the Figure 10b claim: the predicted size
// is pessimistic, i.e. at least the measured index size.
func TestSizeIsUpperBoundOfActual(t *testing.T) {
	keys := workload.Weblogs(200_000, 1)
	m, err := costmodel.Learn(keys, []int{10, 32, 100, 316, 1000, 3162, 10000}, 50, btree.DefaultOrder, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int, len(keys))
	for _, e := range []int{32, 100, 1000} {
		tr, err := core.BulkLoad(keys, vals, core.Options{Error: e})
		if err != nil {
			t.Fatal(err)
		}
		actual := tr.Stats().IndexSize
		predicted := m.Size(e)
		if predicted < actual {
			t.Fatalf("e=%d: predicted %d < actual %d, model not pessimistic", e, predicted, actual)
		}
		// But not absurdly loose either (within ~20x).
		if predicted > actual*20 {
			t.Fatalf("e=%d: predicted %d over 20x actual %d", e, predicted, actual)
		}
	}
}

// TestCacheMissNsMemoized pins the process-wide memoization: an override
// is returned verbatim (no measurement runs) and the restore function
// re-exposes the prior state.
func TestCacheMissNsMemoized(t *testing.T) {
	restore := costmodel.SetCacheMissNsForTest(42)
	defer restore()
	if got := costmodel.CacheMissNs(); got != 42 {
		t.Fatalf("CacheMissNs() = %f with override 42", got)
	}
	inner := costmodel.SetCacheMissNsForTest(7)
	if got := costmodel.CacheMissNs(); got != 7 {
		t.Fatalf("CacheMissNs() = %f with override 7", got)
	}
	inner()
	if got := costmodel.CacheMissNs(); got != 42 {
		t.Fatalf("CacheMissNs() = %f after restore, want 42", got)
	}
}
