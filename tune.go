package fitingtree

import (
	"fmt"

	"fitingtree/internal/costmodel"
)

// TuneRequest asks the Section 6 cost model to pick an error threshold for
// a dataset. Exactly one of MaxLatencyNs or MaxIndexBytes must be set.
type TuneRequest struct {
	// MaxLatencyNs is a lookup latency SLA (e.g. 1000); the pick is the
	// smallest predicted index satisfying it.
	MaxLatencyNs float64
	// MaxIndexBytes is a storage budget (e.g. 100 << 20); the pick is the
	// fastest predicted threshold fitting it.
	MaxIndexBytes int64
	// Candidates are the error thresholds to consider; defaults to powers
	// of 10 from 10 to 1e6.
	Candidates []int
	// CacheMissNs is the modeled random access cost; 0 uses a pointer-chase
	// measurement of the running host (the paper's methodology), taken once
	// per process and memoized.
	CacheMissNs float64
}

// TuneResult reports the pick and the model's predictions for it.
type TuneResult struct {
	Error              int
	PredictedLatencyNs float64
	PredictedSizeBytes int64
	CacheMissNs        float64
}

// Tune samples the dataset's segment counts, builds the cost model, and
// returns the error threshold satisfying the request.
func Tune[K Key](keys []K, req TuneRequest) (TuneResult, error) {
	var res TuneResult
	if (req.MaxLatencyNs > 0) == (req.MaxIndexBytes > 0) {
		return res, fmt.Errorf("fitingtree: set exactly one of MaxLatencyNs and MaxIndexBytes")
	}
	cands := req.Candidates
	if len(cands) == 0 {
		cands = []int{10, 100, 1_000, 10_000, 100_000, 1_000_000}
	}
	c := req.CacheMissNs
	if c <= 0 {
		c = costmodel.CacheMissNs()
	}
	m, err := costmodel.Learn(keys, cands, c)
	if err != nil {
		return res, err
	}
	var e int
	var ok bool
	if req.MaxLatencyNs > 0 {
		e, ok = m.PickForLatency(req.MaxLatencyNs, cands)
		if !ok {
			return res, fmt.Errorf("fitingtree: no candidate satisfies %.0fns lookup latency", req.MaxLatencyNs)
		}
	} else {
		e, ok = m.PickForSpace(req.MaxIndexBytes, cands)
		if !ok {
			return res, fmt.Errorf("fitingtree: no candidate fits %d bytes", req.MaxIndexBytes)
		}
	}
	return TuneResult{
		Error:              e,
		PredictedLatencyNs: m.Latency(e),
		PredictedSizeBytes: m.Size(e),
		CacheMissNs:        c,
	}, nil
}
