package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"time"
)

// Histogram is a log-scale latency histogram: bucket i counts samples in
// [2^i, 2^(i+1)) microseconds, with an underflow bucket for sub-microsecond
// samples. It supports quantile estimation and is cheap enough to sit on
// every engine operation path.
type Histogram struct {
	buckets [40]int64 // 2^39 µs ≈ 6.4 days: effectively unbounded
	under   int64
	count   int64
	sum     time.Duration
	max     time.Duration
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	us := d.Microseconds()
	if us < 1 {
		h.under++
		return
	}
	i := bits.Len64(uint64(us)) - 1 // floor(log2(us)) for us >= 1
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the average sample.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of the
// bucket holding the nearest-rank sample, the ⌈q·n⌉-th smallest: the p99 of
// 50 samples is the largest one.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	seen := h.under
	if seen >= target {
		return time.Microsecond
	}
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			upper := time.Duration(1<<(i+1)) * time.Microsecond
			if upper > h.max && h.max > 0 {
				return h.max
			}
			return upper
		}
	}
	return h.max
}

// Merge adds o's samples into h.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.under += o.under
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Summary formats count/mean/p50/p99/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean().Round(time.Microsecond),
		h.Quantile(0.50).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond),
		h.max.Round(time.Microsecond))
}

// WriteTo prints the non-empty buckets as a text histogram.
func (h *Histogram) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := fmt.Fprintf(w, "%s\n", h.Summary())
	total += int64(n)
	if err != nil {
		return total, err
	}
	if h.under > 0 {
		n, err = fmt.Fprintf(w, "  <1µs %d\n", h.under)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo := time.Duration(1<<i) * time.Microsecond
		n, err = fmt.Fprintf(w, "  %8v %d\n", lo, c)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
