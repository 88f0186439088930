package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perInputMedian is the latency statistic the benchmark reports: the
// median latency of each input (corpus formula, or cold generator),
// averaged over inputs. Inputs differ in cost by up to 5x, so the
// median of the pooled latencies sits in the gap between two inputs'
// distributions and jumps between them from seed to seed; each input's
// own median does not.
func perInputMedian(lats map[string][]float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sum := 0.0
	for _, xs := range lats {
		sum += median(xs)
	}
	return sum / float64(len(lats))
}
