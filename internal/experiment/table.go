// Package experiment regenerates every table and figure of the paper's
// evaluation (Section VI) over the synthetic Adult workload: one function
// per artifact, each returning a Table whose series correspond to the
// figure's series. DESIGN.md carries the per-experiment index and
// EXPERIMENTS.md the paper-vs-measured comparison.
package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is one rendered experiment artifact: an ID matching the paper
// figure, a caption, and rows of pre-formatted cells.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// RenderJSON writes the table as a JSON object with id, title, columns
// and rows — the machine-readable form for external plotting.
func (t *Table) RenderJSON(w io.Writer) error {
	return writeIndented(w, struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}{t.ID, t.Title, t.Columns, t.Rows})
}

// RenderTextJSON renders a prose artifact (the worked example) as one
// JSON value, {"id":…,"text":…}, so -json output stays a stream of JSON
// values whatever it selects.
func RenderTextJSON(w io.Writer, id string, text func(io.Writer) error) error {
	var b strings.Builder
	if err := text(&b); err != nil {
		return err
	}
	return writeIndented(w, struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}{id, b.String()})
}

// writeIndented is the one JSON encoder of the tables and the reports.
func writeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// pct formats a fraction as a percentage cell.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// num formats an integer cell.
func num(v int) string { return fmt.Sprintf("%d", v) }
