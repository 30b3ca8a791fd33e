package main

// speed.go: the machine-speed control. A shared guest does not run at one
// speed: on the reference machine whole minutes run a quarter or more slower
// than others, so that raw rates of one binary spread by 10–40 % over ten
// runs while the ratio of two rates taken side by side holds to 3 %. The
// harness therefore times a fixed kernel of its own beside every chunk it
// measures and reports rates and times at reference speed: rate / speed and
// time × speed, where speed is the kernel's reference time over its time
// just then. The kernel touches no code of the library, so a change to the
// library cannot move it.

import (
	"math"
	"time"
)

const (
	speedProbes = 3000 // binary searches a read and array; about 3 ms a read

	// The two arrays the kernel searches. The small one stays in the
	// last-level cache, and its searches slow when the cores do; most
	// probes of the large one go to memory, and slow when memory does. The
	// workloads depend on both, and a busy neighbour slows the two by
	// different amounts, so speed is the geometric mean of the two.
	smallKeys = 1 << 22 // 32 MB
	largeKeys = 1 << 25 // 256 MB

	// The kernel's ns per search on the reference machine (2 shared vCPUs,
	// Xeon 2.1 GHz) in a quiet hour. They fix the unit: speed 1 is that.
	refSmallNs = 400.0
	refLargeNs = 680.0
)

type speedometer struct {
	small, large []uint64
	x            uint64
	sink         int
	reads        []float64 // every speed read, for the run's report
}

// newSpeedometer sizes the arrays by scale, like every other key count, so
// that a smoke run does not spend its time filling them.
func newSpeedometer(scale float64) *speedometer {
	s := &speedometer{
		small: make([]uint64, max(int(smallKeys*scale), 1024)),
		large: make([]uint64, max(int(largeKeys*scale), 1024)),
		x:     1,
	}
	for i := range s.small {
		s.small[i] = uint64(i)
	}
	for i := range s.large {
		s.large[i] = uint64(i)
	}
	return s
}

// search times speedProbes binary searches for random keys and returns the
// ns one took.
func (s *speedometer) search(keys []uint64) float64 {
	start := time.Now()
	for i := 0; i < speedProbes; i++ {
		s.x = s.x*6364136223846793005 + 1442695040888963407
		target := (s.x >> 33) % uint64(len(keys))
		lo, hi := 0, len(keys)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if keys[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		s.sink += lo
	}
	return float64(time.Since(start).Nanoseconds()) / speedProbes
}

// read runs the kernel once and returns the machine's speed just now.
func (s *speedometer) read() float64 {
	speed := math.Sqrt(refSmallNs / s.search(s.small) * refLargeNs / s.search(s.large))
	s.reads = append(s.reads, speed)
	return speed
}

// calm is the median of five reads: for a quiet point between stretches that
// are not calibrated chunk by chunk.
func (s *speedometer) calm() float64 {
	var reads [5]float64
	for i := range reads {
		reads[i] = s.read()
	}
	return median(reads[:])
}
