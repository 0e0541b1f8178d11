package main

import "sort"

// median returns the median of xs (mean of the middle pair for even
// lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond the tail percentile.
const tailBeyond = 10

// tail returns the highest whole percentile p (1..99) whose
// nearest-rank value leaves at least tailBeyond samples strictly beyond
// it in rank, together with that value. ok is false when there are too
// few samples for any percentile to qualify.
func tail(xs []float64) (p int, v float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for p = 99; p >= 1; p-- {
		rank := (p*n + 99) / 100 // ceil(p·n/100)
		if n-rank >= tailBeyond {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}
