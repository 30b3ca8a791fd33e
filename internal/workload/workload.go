// Package workload generates the datasets the FITing-Tree evaluation runs
// on.
//
// The paper evaluates on proprietary or externally hosted data (Weblogs:
// 715M HTTP requests to a university department over 14 years; IoT: 5M
// building-sensor events; Maps: 2B OpenStreetMap longitudes; NYC taxi
// attributes). None of those can ship in an offline repository, so this
// package synthesizes equivalents that preserve the property the paper
// identifies as the performance driver: the periodicity of the
// key->position mapping at particular scales (Section 7.1.1, Figure 8).
//
//   - Weblogs-like timestamps have layered diurnal, weekly, and yearly
//     intensity patterns (several non-linearity bumps at different scales).
//   - IoT-like timestamps have one strong day/night cycle (a single large
//     bump at the rows-per-day scale).
//   - Maps-like longitudes are near-linear at small scales with mild
//     large-scale continental clustering.
//   - Taxi-like attributes (pickup time, drop latitude/longitude) follow
//     diurnal respectively Gaussian-mixture spatial distributions.
//
// Timestamps are generated by inverse-transform sampling of a
// non-homogeneous arrival intensity evaluated on a dense grid, plus
// quantile-space jitter so fine scales look Poisson-ish rather than
// perfectly smooth. Generation is deterministic per seed.
//
// The package also provides the paper's worst-case step dataset (Figure 9a)
// and the non-linearity ratio measure (Figure 8).
package workload

import (
	"math"
	"math/rand"
	"sort"

	"fitingtree/internal/num"
	"fitingtree/internal/segment"
)

// inverseSample draws n sorted samples in [0, 1) from the density given by
// intensity evaluated on a uniform grid. Jitter in quantile space keeps the
// output strictly increasing while breaking up grid-scale smoothness.
func inverseSample(n int, grid []float64, rng *rand.Rand) []float64 {
	if n == 0 {
		return nil
	}
	// Cumulative intensity (trapezoid rule); cum has len(grid) entries,
	// cum[i] = integral up to grid point i.
	cum := make([]float64, len(grid))
	for i := 1; i < len(grid); i++ {
		cum[i] = cum[i-1] + (grid[i]+grid[i-1])/2
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		// Degenerate intensity: fall back to uniform.
		out := make([]float64, n)
		for i := range out {
			out[i] = (float64(i) + 0.9*rng.Float64()) / float64(n)
		}
		return out
	}
	out := make([]float64, n)
	cell := 1 // current grid cell, cum[cell-1] <= target < cum[cell]
	for i := 0; i < n; i++ {
		// Strictly increasing quantile targets with sub-quantile jitter.
		target := (float64(i) + 0.9*rng.Float64()) / float64(n) * total
		for cell < len(cum)-1 && cum[cell] < target {
			cell++
		}
		lo, hi := cum[cell-1], cum[cell]
		frac := 0.0
		if hi > lo {
			frac = (target - lo) / (hi - lo)
		}
		out[i] = (float64(cell-1) + frac) / float64(len(grid)-1)
	}
	sort.Float64s(out) // jitter is sub-quantile, but make ordering explicit
	return out
}

// hourOfDay returns the hour in [0, 24) for a time in days.
func hourOfDay(tDays float64) float64 {
	_, frac := math.Modf(tDays)
	return frac * 24
}

// dayOfWeek returns 0..6 for a time in days (0 is a Monday by convention).
func dayOfWeek(tDays float64) int {
	return int(math.Floor(tDays)) % 7
}

// dayOfYear returns 0..364 for a time in days.
func dayOfYear(tDays float64) int {
	return int(math.Floor(tDays)) % 365
}

// weblogsIntensity models request arrival intensity for a university
// department web server: a daytime peak, weekday/weekend contrast, a summer
// lull, and a winter-break dip. The layered periods produce the multiple
// non-linearity bumps of Figure 8.
func weblogsIntensity(tDays float64) float64 {
	h := hourOfDay(tDays)
	diurnal := 0.15 + math.Exp(-(h-14)*(h-14)/(2*16))
	weekly := 1.0
	if d := dayOfWeek(tDays); d >= 5 {
		weekly = 0.35
	}
	yearly := 1.0
	doy := dayOfYear(tDays)
	if doy >= 150 && doy <= 240 { // summer
		yearly = 0.45
	} else if doy >= 355 || doy <= 10 { // winter break
		yearly = 0.6
	}
	return diurnal * weekly * yearly
}

// iotIntensity models building-sensor event intensity: strong day/night
// cycling (classes in session) and quiet weekends — one dominant period,
// the single big bump of Figure 8.
func iotIntensity(tDays float64) float64 {
	h := hourOfDay(tDays)
	diurnal := 0.04
	if h >= 7 && h <= 20 {
		diurnal = 0.04 + 0.96*math.Sin(math.Pi*(h-7)/13)
	}
	weekly := 1.0
	if d := dayOfWeek(tDays); d >= 5 {
		weekly = 0.2
	}
	return diurnal * weekly
}

// intensityGrid evaluates fn on a uniform grid over [0, spanDays] with the
// given number of samples per day.
func intensityGrid(spanDays float64, perDay int, fn func(tDays float64) float64) []float64 {
	points := int(spanDays*float64(perDay)) + 1
	grid := make([]float64, points)
	for i := range grid {
		grid[i] = fn(float64(i) / float64(perDay))
	}
	return grid
}

// WeblogsSpanDays is the time span of the Weblogs-like dataset (14 years,
// matching the paper's description).
const WeblogsSpanDays = 14 * 365

// IoTSpanDays is the time span of the IoT-like dataset.
const IoTSpanDays = 500

// Weblogs generates n sorted request timestamps in milliseconds spanning 14
// years with diurnal + weekly + yearly intensity patterns.
func Weblogs(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	grid := intensityGrid(WeblogsSpanDays, 96, weblogsIntensity) // 15-minute resolution
	return toMillis(inverseSample(n, grid, rng), WeblogsSpanDays)
}

// IoT generates n sorted sensor-event timestamps in milliseconds spanning
// 500 days with a strong day/night cycle.
func IoT(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	grid := intensityGrid(IoTSpanDays, 288, iotIntensity) // 5-minute resolution
	return toMillis(inverseSample(n, grid, rng), IoTSpanDays)
}

// toMillis scales unit-interval samples to milliseconds over spanDays.
func toMillis(unit []float64, spanDays float64) []uint64 {
	spanMs := spanDays * 24 * 3600 * 1000
	out := make([]uint64, len(unit))
	for i, u := range unit {
		out[i] = uint64(u * spanMs)
	}
	for i := 1; i < len(out); i++ { // guard against float ties
		if out[i] < out[i-1] {
			out[i] = out[i-1]
		}
	}
	return out
}

// gaussianMixture evaluates a mixture of Gaussians (center, sigma, weight).
type gaussianMixture []struct {
	center, sigma, weight float64
}

func (m gaussianMixture) at(x float64) float64 {
	v := 0.0
	for _, g := range m {
		d := (x - g.center) / g.sigma
		v += g.weight * math.Exp(-d*d/2)
	}
	return v
}

// mixtureGrid evaluates base + mixture on a uniform grid over [lo, hi].
func mixtureGrid(lo, hi, base float64, m gaussianMixture, points int) []float64 {
	grid := make([]float64, points)
	for i := range grid {
		x := lo + (hi-lo)*float64(i)/float64(points-1)
		grid[i] = base + m.at(x)
	}
	return grid
}

// MapsLongitude generates n sorted longitudes in [-180, 180) clustered
// around continent-like density centers, near-linear at small scales like
// the paper's OSM data.
func MapsLongitude(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	m := gaussianMixture{
		{-100, 18, 1.0}, // North America
		{-60, 10, 0.5},  // South America
		{10, 14, 1.2},   // Europe/Africa
		{80, 25, 1.5},   // Asia
		{140, 10, 0.4},  // Australia/Japan
	}
	grid := mixtureGrid(-180, 180, 0.05, m, 100_000)
	unit := inverseSample(n, grid, rng)
	out := make([]float64, n)
	for i, u := range unit {
		out[i] = -180 + 360*u
	}
	return out
}

// TaxiPickupTime generates n sorted pickup timestamps in seconds over one
// month with taxi-like diurnal structure (morning and evening peaks, late
// night lull).
func TaxiPickupTime(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	fn := func(tDays float64) float64 {
		h := hourOfDay(tDays)
		v := 0.15 +
			0.8*math.Exp(-(h-8.5)*(h-8.5)/(2*2.25)) +
			1.0*math.Exp(-(h-18.5)*(h-18.5)/(2*4))
		if d := dayOfWeek(tDays); d >= 5 {
			// Weekends shift activity toward the night.
			v = 0.3 + 0.8*math.Exp(-(h-22)*(h-22)/(2*9))
		}
		return v
	}
	grid := intensityGrid(30, 1440, fn) // minute resolution over 30 days
	unit := inverseSample(n, grid, rng)
	spanSec := 30.0 * 24 * 3600
	out := make([]uint64, n)
	for i, u := range unit {
		out[i] = uint64(u * spanSec)
	}
	for i := 1; i < n; i++ {
		if out[i] < out[i-1] {
			out[i] = out[i-1]
		}
	}
	return out
}

// TaxiDropLat generates n sorted drop-off latitudes around a Manhattan-like
// density profile.
func TaxiDropLat(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	m := gaussianMixture{
		{40.72, 0.02, 1.5}, // downtown
		{40.78, 0.03, 1.0}, // midtown/uptown
		{40.65, 0.04, 0.3}, // airport
	}
	grid := mixtureGrid(40.5, 41.0, 0.02, m, 50_000)
	unit := inverseSample(n, grid, rng)
	out := make([]float64, n)
	for i, u := range unit {
		out[i] = 40.5 + 0.5*u
	}
	return out
}

// TaxiDropLon generates n sorted drop-off longitudes with a city-like
// mixture profile.
func TaxiDropLon(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	m := gaussianMixture{
		{-73.99, 0.015, 1.5},
		{-73.95, 0.02, 0.8},
		{-73.87, 0.02, 0.3}, // LGA
	}
	grid := mixtureGrid(-74.1, -73.7, 0.02, m, 50_000)
	unit := inverseSample(n, grid, rng)
	out := make([]float64, n)
	for i, u := range unit {
		out[i] = -74.1 + 0.4*u
	}
	return out
}

// Step generates the paper's worst-case dataset (Figure 9a): a step
// function where each distinct key repeats stepSize times and consecutive
// distinct keys are gap apart. With an error threshold below stepSize a
// FITing-Tree degenerates to segments of ~error elements; at or above
// stepSize a single segment covers everything.
func Step(n, stepSize int, gap uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i/stepSize) * gap
	}
	return out
}

// Uniform generates n sorted keys drawn uniformly from [0, max).
func Uniform(n int, max uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(rng.Int63n(int64(max)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Lognormal generates n sorted keys from a scaled lognormal distribution, a
// common stand-in for heavy-tailed key spaces.
func Lognormal(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		v := math.Exp(rng.NormFloat64()*2 + 10)
		out[i] = uint64(v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Distinct returns the number of distinct values in sorted keys.
func Distinct[K num.Key](keys []K) int {
	if len(keys) == 0 {
		return 0
	}
	d := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1] {
			d++
		}
	}
	return d
}

// NonLinearityRatio computes the Figure 8 measure for sorted keys at a
// given error threshold: the number of segments ShrinkingCone needs,
// normalized by the worst case |D|/(err+1) (a dataset whose periodicity
// equals the error). 1.0 means maximally non-linear at that scale; values
// near 0 mean the data is near-linear at that scale.
func NonLinearityRatio[K num.Key](keys []K, err int) float64 {
	if len(keys) == 0 {
		return 0
	}
	segs := segment.ShrinkingCone(keys, err)
	worst := float64(len(keys)) / float64(err+1)
	if worst < 1 {
		worst = 1
	}
	return float64(len(segs)) / worst
}

// KeyPositionSeries subsamples sorted keys into (key, position) points for
// plotting the key->position mapping (Figure 1). It returns at most points
// pairs, evenly spaced by position.
func KeyPositionSeries[K num.Key](keys []K, points int) (ks []float64, positions []int) {
	if len(keys) == 0 || points <= 0 {
		return nil, nil
	}
	step := max(1, len(keys)/points)
	for i := 0; i < len(keys); i += step {
		ks = append(ks, num.Approx(keys[i]))
		positions = append(positions, i)
	}
	return ks, positions
}
