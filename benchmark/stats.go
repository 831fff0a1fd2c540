package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread renders the quartiles and the sample count the way every timing
// in the report carries them.
func spread(xs []float64) string {
	return fmt.Sprintf("q1 %.4g, q3 %.4g, n %d", quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
}

// tailWindows is how many sub-windows a tail percentile is taken over.
const tailWindows = 10

// tail estimates a high percentile so that one host hiccup cannot own it:
// the samples, in the order they were taken, are cut into ten equal
// sub-windows and the result is the median of the sub-windows' nearest-rank
// q-quantiles. A sub-window with fewer than 1/(1-q) samples yields its
// maximum.
func tail(xs []float64, q float64) float64 {
	if len(xs) < 2*tailWindows {
		return quantile(xs, q)
	}
	per := make([]float64, 0, tailWindows)
	for w := 0; w < tailWindows; w++ {
		lo, hi := w*len(xs)/tailWindows, (w+1)*len(xs)/tailWindows
		per = append(per, quantile(xs[lo:hi], q))
	}
	return median(per)
}

// ms converts nanosecond samples to milliseconds.
func ms(ns []float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = v / 1e6
	}
	return out
}
