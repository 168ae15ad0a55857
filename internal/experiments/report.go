// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) plus the ablations DESIGN.md calls out. Each experiment
// is a pure function of its config (seeded, deterministic) returning a
// typed result and a printable Report; cmd/cyrusbench renders them and
// bench_test.go wraps them in testing.B benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Report is a printable table of experiment output.
type Report struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// secs formats a duration in seconds with sensible precision.
func secs(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// mbps formats a byte rate as MB/s.
func mbps(bytesPerSec float64) string {
	return fmt.Sprintf("%.1f MB/s", bytesPerSec/(1<<20))
}

// mb formats a byte count as MB.
func mb(bytes int64) string {
	return fmt.Sprintf("%.2f MB", float64(bytes)/(1<<20))
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%d ms", d.Milliseconds())
}

// boxStats are the five-number summary used for the paper's box plots.
type boxStats struct {
	Min, Q1, Median, Q3, Max float64
}

func computeBox(samples []float64) boxStats {
	if len(samples) == 0 {
		return boxStats{}
	}
	s := append([]float64(nil), samples...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	q := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		idx := p * float64(len(s)-1)
		lo := int(idx)
		frac := idx - float64(lo)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
	return boxStats{Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: s[len(s)-1]}
}

func (b boxStats) row() []string {
	return []string{secs(b.Min), secs(b.Q1), secs(b.Median), secs(b.Q3), secs(b.Max)}
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func total(samples []float64) float64 {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum
}
