package stats

import (
	"fmt"
	"math"
	"strings"
)

// BarChart renders labeled horizontal bars scaled to a fixed width, the
// terminal equivalent of the paper's per-application bar figures.
type BarChart struct {
	title  string
	width  int
	labels []string
	values []float64
}

// NewBarChart creates a chart; width is the maximum bar length in
// characters (default 40 when <= 0).
func NewBarChart(title string, width int) *BarChart {
	if width <= 0 {
		width = 40
	}
	return &BarChart{title: title, width: width}
}

// Add appends one bar.
func (c *BarChart) Add(label string, value float64) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
}

// String renders the chart.
func (c *BarChart) String() string {
	var b strings.Builder
	if c.title != "" {
		b.WriteString(c.title)
		b.WriteString("\n")
	}
	if len(c.values) == 0 {
		return b.String()
	}
	maxVal := c.values[0]
	maxLabel := 0
	for i, v := range c.values {
		if v > maxVal {
			maxVal = v
		}
		if len(c.labels[i]) > maxLabel {
			maxLabel = len(c.labels[i])
		}
	}
	if maxVal <= 0 {
		maxVal = 1
	}
	for i, v := range c.values {
		n := int(math.Round(v / maxVal * float64(c.width)))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "%-*s %s %.3g\n", maxLabel, c.labels[i], strings.Repeat("#", n), v)
	}
	return b.String()
}
