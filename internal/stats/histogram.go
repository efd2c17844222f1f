package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width linear-bin histogram over [Lo, Hi). Values
// outside the range are counted in underflow/overflow buckets so no
// observation is silently dropped.
type Histogram struct {
	Lo, Hi    float64
	bins      []int64
	underflow int64
	overflow  int64
	total     int64
}

// NewHistogram returns a histogram with nbins equal-width bins over
// [lo, hi). It panics if the range or bin count is invalid.
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) nbins=%d", lo, hi, nbins))
	}
	return &Histogram{Lo: lo, Hi: hi, bins: make([]int64, nbins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.underflow++
	case x >= h.Hi:
		h.overflow++
	default:
		idx := int(float64(len(h.bins)) * (x - h.Lo) / (h.Hi - h.Lo))
		if idx >= len(h.bins) {
			idx = len(h.bins) - 1
		}
		h.bins[idx]++
	}
}

// N returns the total number of observations, including out-of-range ones.
func (h *Histogram) N() int64 { return h.total }

// Underflow and Overflow return the out-of-range counts.
func (h *Histogram) Underflow() int64 { return h.underflow }

// Overflow returns the count of observations at or above Hi.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Bins returns a copy of the bin counts.
func (h *Histogram) Bins() []int64 { return append([]int64(nil), h.bins...) }

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.bins)) }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Count returns the count in bin i.
func (h *Histogram) Count(i int) int64 { return h.bins[i] }

// Quantile returns an approximate quantile assuming observations are
// uniform within each bin. Out-of-range mass is attributed to the
// boundary values.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := q * float64(h.total)
	cum := float64(h.underflow)
	if target <= cum {
		return h.Lo
	}
	for i, c := range h.bins {
		next := cum + float64(c)
		if target <= next && c > 0 {
			frac := (target - cum) / float64(c)
			return h.Lo + (float64(i)+frac)*h.BinWidth()
		}
		cum = next
	}
	return h.Hi
}

// Render draws a horizontal ASCII bar chart of the histogram, width
// characters wide, skipping leading/trailing empty bins.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	first, last := -1, -1
	var maxC int64
	for i, c := range h.bins {
		if c > 0 {
			if first < 0 {
				first = i
			}
			last = i
			if c > maxC {
				maxC = c
			}
		}
	}
	if first < 0 {
		return "(empty histogram)\n"
	}
	var b strings.Builder
	for i := first; i <= last; i++ {
		barLen := int(math.Round(float64(h.bins[i]) / float64(maxC) * float64(width)))
		fmt.Fprintf(&b, "%10.3f |%s %d\n", h.BinCenter(i), strings.Repeat("#", barLen), h.bins[i])
	}
	if h.underflow > 0 {
		fmt.Fprintf(&b, "underflow: %d\n", h.underflow)
	}
	if h.overflow > 0 {
		fmt.Fprintf(&b, "overflow: %d\n", h.overflow)
	}
	return b.String()
}
