// An external test package: it checks the model's predictions against real
// trees built by package core.
package costmodel_test

import (
	"testing"

	"fitingtree/internal/core"
	"fitingtree/internal/costmodel"
	"fitingtree/internal/workload"
)

// TestSizeIsUpperBoundOfActual is the Figure 10b claim: the predicted size
// is pessimistic, i.e. at least the measured index size.
func TestSizeIsUpperBoundOfActual(t *testing.T) {
	keys := workload.Weblogs(200_000, 1)
	m, err := costmodel.Learn(keys, []int{10, 32, 100, 316, 1000, 3162, 10000}, 50)
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

// TestCacheMissNsMemoized pins the process-wide memoization: the host is
// measured once, so a second call returns the first call's value.
func TestCacheMissNsMemoized(t *testing.T) {
	first := costmodel.CacheMissNs()
	if first <= 0 {
		t.Fatalf("CacheMissNs() = %f", first)
	}
	if got := costmodel.CacheMissNs(); got != first {
		t.Fatalf("CacheMissNs() = %f, then %f", first, got)
	}
}
