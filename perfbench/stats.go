package main

import (
	"slices"
	"time"
)

// median is the middle value, or the mean of the two middle values; 0
// for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqm is the interquartile mean: the mean of the middle half of the
// values, which ignores the rounds a collection or a noisy neighbour hit
// yet averages more samples than the median.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// tailOf returns the value at the highest percentile that has at least
// ten samples beyond it, and that percentile. With ten samples or fewer
// no percentile qualifies; it then returns the maximum as percentile 100.
func tailOf(xs []float64) (v, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// durs converts durations to float64 in units of div nanoseconds.
func durs(ds []time.Duration, div float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / div
	}
	return out
}

// medianDur is the median duration in nanoseconds.
func medianDur(ds []time.Duration) float64 { return median(durs(ds, 1)) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perTrace sums the durations of the named spans per trace ID (for
// example, every morsel's consume time of one query).
func (t *tracer) perTrace(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := map[uint64]int{}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		i, ok := idx[s.Trace]
		if !ok {
			i = len(out)
			idx[s.Trace] = i
			out = append(out, 0)
		}
		out[i] += s.dur()
	}
	return out
}
