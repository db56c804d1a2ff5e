// Package report renders the study's results as aligned ASCII tables,
// horizontal bar "figures" with confidence intervals, and CSV files, so
// that every table and figure of the paper can be regenerated from the
// command line.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned-column text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row (values are copied).
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, append([]string(nil), cells...))
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// WriteCSV writes headers and rows in CSV format.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return fmt.Errorf("report: writing CSV header: %w", err)
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("report: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("report: flushing CSV: %w", err)
	}
	return nil
}

// Bar renders one labelled horizontal bar with an optional ±CI annotation,
// scaled so that value 1.0 spans width characters.
func Bar(label string, value, ci float64, width int) string {
	if width <= 0 {
		width = 40
	}
	v := value
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	n := int(float64(v*float64(width)) + 0.5)
	bar := strings.Repeat("█", n) + strings.Repeat("·", width-n)
	if ci > 0 {
		return fmt.Sprintf("%-8s |%s| %5.1f%% ±%.1f", label, bar, value*100, ci*100)
	}
	return fmt.Sprintf("%-8s |%s| %5.1f%%", label, bar, value*100)
}

// PercentCell formats a mean as a percentage for table cells.
func PercentCell(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

// PercentCI formats mean ± CI as a percentage cell.
func PercentCI(mean, ci float64) string {
	if ci > 0 {
		return fmt.Sprintf("%.1f%% ±%.1f", mean*100, ci*100)
	}
	return fmt.Sprintf("%.1f%%", mean*100)
}
