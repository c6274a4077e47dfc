// Package metrics provides small time-series helpers used by the
// experiment harness: bucketed accumulators for throughput curves (the
// paper's six-minute tpmC/tpsE buckets) and the three-point moving average
// its Figure 6 applies for readability.
package metrics

import "time"

// Series accumulates values into fixed-width time buckets.
type Series struct {
	width time.Duration
	vals  []float64
}

// NewSeries returns a series with the given bucket width.
func NewSeries(width time.Duration) *Series {
	if width <= 0 {
		panic("metrics: non-positive bucket width")
	}
	return &Series{width: width}
}

// Width returns the bucket width.
func (s *Series) Width() time.Duration { return s.width }

// Add accumulates v into the bucket containing time t.
func (s *Series) Add(t time.Duration, v float64) {
	if t < 0 {
		t = 0
	}
	i := int(t / s.width)
	for len(s.vals) <= i {
		s.vals = append(s.vals, 0)
	}
	s.vals[i] += v
}

// Len returns the number of buckets.
func (s *Series) Len() int { return len(s.vals) }

// Values returns the bucket totals (shared slice; do not modify).
func (s *Series) Values() []float64 { return s.vals }

// Rate returns per-second rates: each bucket total divided by the width.
func (s *Series) Rate() []float64 {
	out := make([]float64, len(s.vals))
	secs := s.width.Seconds()
	for i, v := range s.vals {
		out[i] = v / secs
	}
	return out
}

// MovingAvg returns the w-point centered moving average of vals, as the
// paper's Figure 6 uses (w = 3 there). Edges average the available points.
func MovingAvg(vals []float64, w int) []float64 {
	if w < 1 {
		w = 1
	}
	half := w / 2
	out := make([]float64, len(vals))
	for i := range vals {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi > len(vals)-1 {
			hi = len(vals) - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += vals[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}

// Mean returns the arithmetic mean of vals (0 for empty input).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Tail returns the last n values (or all, if fewer).
func Tail(vals []float64, n int) []float64 {
	if n >= len(vals) {
		return vals
	}
	return vals[len(vals)-n:]
}
