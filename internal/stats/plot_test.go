package stats

import (
	"strings"
	"testing"
)

func TestBarChartScaling(t *testing.T) {
	c := NewBarChart("title", 10)
	c.Add("a", 10)
	c.Add("bb", 5)
	out := c.String()
	if !strings.HasPrefix(out, "title\n") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d", len(lines))
	}
	if strings.Count(lines[1], "#") != 10 {
		t.Fatalf("max bar should fill the width: %q", lines[1])
	}
	if strings.Count(lines[2], "#") != 5 {
		t.Fatalf("half bar should be half width: %q", lines[2])
	}
}

func TestBarChartEmptyAndZero(t *testing.T) {
	if out := NewBarChart("", 5).String(); out != "" {
		t.Fatalf("empty chart should render nothing: %q", out)
	}
	c := NewBarChart("", 5)
	c.Add("x", 0)
	if !strings.Contains(c.String(), "x") {
		t.Fatal("zero bars still show labels")
	}
}
