package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 {
		t.Errorf("empty histogram: %s", h.Summary())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	if h.Count() != 3 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Max() != 3*time.Millisecond {
		t.Errorf("Max = %v", h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if h.Max() != 0 || h.Count() != 1 {
		t.Errorf("negative sample mishandled: %s", h.Summary())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	p99 := h.Quantile(0.99)
	if p50 < 25*time.Millisecond || p50 > 128*time.Millisecond {
		t.Errorf("p50 = %v", p50)
	}
	if p99 < p50 {
		t.Errorf("p99 (%v) < p50 (%v)", p99, p50)
	}
	if p99 > h.Max() {
		t.Errorf("p99 (%v) > max (%v)", p99, h.Max())
	}
}

// Quantile takes the nearest rank, ⌈q·n⌉: a floor would read the sample
// below it, and a small window's p99 would hide its one outlier.
func TestHistogramQuantileNearestRank(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 100 * time.Millisecond} {
		h.Observe(d)
	}
	if got, want := h.Quantile(0.5), 2048*time.Microsecond; got != want {
		t.Errorf("p50 of {1ms, 2ms, 100ms} = %v, want the 2ms bucket's bound %v", got, want)
	}
	h.Reset()
	for i := 0; i < 49; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Second)
	if got := h.Quantile(0.99); got != time.Second {
		t.Errorf("p99 of 49 × 1ms and one 1s = %v, want 1s", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	b.Observe(10 * time.Millisecond)
	b.Observe(20 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Errorf("merged Count = %d", a.Count())
	}
	if a.Max() != 20*time.Millisecond {
		t.Errorf("merged Max = %v", a.Max())
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("Reset left state")
	}
}

func TestHistogramWriteTo(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond)
	h.Observe(3 * time.Millisecond)
	var sb strings.Builder
	if _, err := h.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "n=2") || !strings.Contains(out, "<1µs 1") {
		t.Errorf("WriteTo output: %q", out)
	}
}

// Property: quantile estimates bracket the true quantile within one power
// of two (the histogram's resolution guarantee).
func TestHistogramQuantileAccuracyProperty(t *testing.T) {
	prop := func(raw []uint32, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 500 {
			raw = raw[:500]
		}
		q := float64(qRaw%99+1) / 100
		var h Histogram
		vals := make([]time.Duration, len(raw))
		for i, v := range raw {
			vals[i] = time.Duration(v%10_000_000) * time.Microsecond
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		idx := int(math.Ceil(q*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		truth := vals[idx]
		est := h.Quantile(q)
		// The estimate is the bucket's upper bound: within 2x above the
		// truth (plus the 1µs floor), never below it.
		if est < truth {
			return false
		}
		if truth > 2*time.Microsecond && est > truth*2+2*time.Microsecond {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
