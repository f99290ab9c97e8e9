package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// arrivals returns the open-loop schedule: the due offset of each page view
// from the phase start. It is a Poisson process at rate per second over
// window, conditioned on its expected count: that many due times drawn
// uniformly over the window, in order. Fixing the count keeps the work a
// run measures the same for every seed. The same seed gives the same
// schedule.
func arrivals(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, int(math.Round(rate*window.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// simOffset is how far the simulated clock stands past its start when
// arrival i is served: it moves one step per epoch of arrivals. It depends
// on the arrival index alone, never on wall time, so every run of a seed
// sees the same cache expiries at the same page views.
func simOffset(i, epoch int, step time.Duration) time.Duration {
	return time.Duration(i/epoch) * step
}

// tail returns the q-quantile of xs (nearest rank), lowered where needed to
// the highest quantile with at least ten samples beyond it, and the
// quantile actually reported. With fewer than eleven samples no quantile
// qualifies; the median is reported with quantile 0.5.
func tail(xs []float64, q float64) (float64, float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	k := int(math.Ceil(q*float64(n))) - 1
	if k > n-11 {
		k = n - 11
	}
	if k < 0 {
		return median(xs), 0.5
	}
	return s[k], float64(k+1) / float64(n)
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is num/den, or 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
