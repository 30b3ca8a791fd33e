// The identity test lives outside package segment because the datasets
// come from internal/workload, which imports segment.
package segment_test

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"fitingtree/internal/num"
	"fitingtree/internal/segment"
	"fitingtree/internal/workload"
	"fitingtree/keycodec"
)

// identityN is large enough that seven processors get seven parts.
const identityN = 1 << 18

// TestShrinkingConeParallelMatchesSequential pins ShrinkingCone's result to
// the one-part pass at every GOMAXPROCS: on data whose parts meet after a
// few segments, on duplicate runs and all-equal keys (segments cut at the
// ε + 1 limit), on one linear run (one segment: the first part's pass runs
// to the end and every other part's is discarded), and on float and string
// keys.
func TestShrinkingConeParallelMatchesSequential(t *testing.T) {
	linear := make([]uint64, identityN)
	for i := range linear {
		linear[i] = uint64(i) * 7
	}
	floats := make([]float64, identityN)
	for i, k := range workload.Lognormal(identityN, 5) {
		floats[i] = math.Log(float64(k) + 1)
	}
	codec := make([]string, identityN)
	for i, k := range workload.Weblogs(identityN, 6) {
		codec[i] = keycodec.Uint64(k)
	}
	sets := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"weblogs", matchesSequential(workload.Weblogs(identityN, 1))},
		{"iot", matchesSequential(workload.IoT(identityN, 2))},
		{"lognormal", matchesSequential(workload.Lognormal(identityN, 3))},
		{"uniform", matchesSequential(workload.Uniform(identityN, 1<<40, 4))},
		{"step", matchesSequential(workload.Step(identityN, 90, 1000))},
		{"allequal", matchesSequential(make([]uint64, identityN))},
		{"linear", matchesSequential(linear)},
		{"float64", matchesSequential(floats)},
		{"codec", matchesSequential(codec)},
	}
	for _, s := range sets {
		t.Run(s.name, s.run)
	}
}

func matchesSequential[K num.Key](keys []K) func(t *testing.T) {
	return func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, e := range []int{1, 10, 100, 1000, 10000} {
			runtime.GOMAXPROCS(1)
			want := segment.ShrinkingCone(keys, e)
			if err := segment.Verify(keys, want, e); err != nil {
				t.Fatalf("ε %d, one part: %v", e, err)
			}
			for _, procs := range []int{2, 3, 4, 7} {
				runtime.GOMAXPROCS(procs)
				if p := segment.Parts(len(keys)); p != procs {
					t.Fatalf("GOMAXPROCS %d: %d parts", procs, p)
				}
				if got := segment.ShrinkingCone(keys, e); !reflect.DeepEqual(got, want) {
					t.Fatalf("ε %d, GOMAXPROCS %d: %d segments, one part gives %d", e, procs, len(got), len(want))
				}
			}
		}
	}
}
