package core

// result.go is the single typed result model every experiment returns: a
// column schema with units, the rows, and the echoed parameters, with the
// tree's only table renderers: aligned text (byte-identical to the
// pre-registry tables), CSV, and a stable JSON encoding downstream tooling
// (benchmark trackers, regression diffing, sweep aggregation) can consume
// without screen-scraping.

import (
	"encoding/json"
	"fmt"
	"strings"
	"unicode/utf8"
)

// Column is one column of a ResultTable: the display name (exactly the
// header the text and CSV renderers print) plus the unit of the quantity,
// carried separately for machine-readable output.
type Column struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
}

// Col constructs a Column.
func Col(name, unit string) Column { return Column{Name: name, Unit: unit} }

// ResultTable is one table of an experiment's Result: title, column schema
// and rows. Cells keep their native types (integers stay numbers in JSON);
// cells the text renderer shows pre-formatted (percentages, ratios) are
// strings here too, so every renderer agrees on what was measured.
type ResultTable struct {
	Title   string   `json:"title"`
	Columns []Column `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// NewResultTable returns a table with the given title and column schema.
func NewResultTable(title string, cols ...Column) *ResultTable {
	return &ResultTable{Title: title, Columns: cols}
}

// AddRow appends one row; cells line up with Columns.
func (t *ResultTable) AddRow(cells ...any) {
	t.Rows = append(t.Rows, cells)
}

// Result is the uniform experiment outcome: which experiment ran, with
// which (normalized) parameters, and the tables it produced. RunExperiment
// stamps Experiment, Title and Params; Spec.Run only builds Tables.
type Result struct {
	Experiment string         `json:"experiment"`
	Title      string         `json:"title"`
	Params     Params         `json:"params"`
	Tables     []*ResultTable `json:"tables"`
}

// NewResult wraps tables into a Result (id, title and params are stamped by
// RunExperiment).
func NewResult(tables ...*ResultTable) *Result {
	return &Result{Tables: tables}
}

// Text renders every table as the aligned text the CLI prints by default,
// one blank line after each table.
func (r *Result) Text() string {
	var b strings.Builder
	for _, t := range r.Tables {
		t.writeText(&b)
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders every table as comma-separated values (headers first).
func (r *Result) CSV() string {
	var b strings.Builder
	for _, t := range r.Tables {
		t.writeCSV(&b)
	}
	return b.String()
}

// JSON returns the stable machine-readable encoding: one compact document
// with the experiment id, title, echoed params, and every table's column
// schema (with units) and rows. Params encode with sorted keys, so equal
// results encode to equal bytes.
func (r *Result) JSON() ([]byte, error) {
	return json.Marshal(r)
}

// formatCell renders one cell as both text renderers show it: floats to two
// decimals, everything else as fmt.Sprint would.
func formatCell(c any) string {
	switch c.(type) {
	case float64, float32:
		return fmt.Sprintf("%.2f", c)
	default:
		return fmt.Sprint(c)
	}
}

// cells formats every body cell of t once, for whichever renderer asked.
func (t *ResultTable) cells() [][]string {
	rows := make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		rows[i] = make([]string, len(row))
		for j, c := range row {
			rows[i][j] = formatCell(c)
		}
	}
	return rows
}

// headers returns the column names, the text and CSV header row.
func (t *ResultTable) headers() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// writeText renders the table as aligned text: the title, the header row
// and a dash rule, then one line per row. Numeric-looking cells are
// right-aligned and everything else left-aligned; widths and padding count
// runes, and trailing spaces are trimmed from every line.
func (t *ResultTable) writeText(b *strings.Builder) {
	headers, rows := t.headers(), t.cells()
	ncol := len(headers)
	for _, r := range rows {
		ncol = max(ncol, len(r))
	}
	widths := make([]int, ncol)
	measure := func(cells []string) {
		for i, c := range cells {
			widths[i] = max(widths[i], utf8.RuneCountInString(c))
		}
	}
	measure(headers)
	for _, r := range rows {
		measure(r)
	}
	width := max(0, 2*(ncol-1)) // the widest line, in runes
	for _, w := range widths {
		width += w
	}
	b.Grow(len(t.Title) + (len(rows)+3)*(width+1))
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := make([]byte, 0, width)
	writeRow := func(cells []string) {
		line = line[:0]
		for i, w := range widths {
			var c string
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				line = append(line, "  "...)
			}
			pad := w - utf8.RuneCountInString(c)
			if looksNumeric(c) {
				line = appendSpaces(line, pad)
				line = append(line, c...)
			} else {
				line = append(line, c...)
				line = appendSpaces(line, pad)
			}
		}
		for len(line) > 0 && line[len(line)-1] == ' ' {
			line = line[:len(line)-1]
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	if len(headers) > 0 {
		writeRow(headers)
		for range width {
			b.WriteByte('-')
		}
		b.WriteByte('\n')
	}
	for _, r := range rows {
		writeRow(r)
	}
}

// appendSpaces appends n spaces (none when n <= 0).
func appendSpaces(line []byte, n int) []byte {
	for ; n > 0; n-- {
		line = append(line, ' ')
	}
	return line
}

// looksNumeric reports whether a cell right-aligns: digits with an optional
// leading minus, one decimal point, and a trailing "%" or ratio "x".
func looksNumeric(s string) bool {
	if s == "" {
		return false
	}
	dot := false
	digits := 0
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '-' && i == 0:
		case r == '.' && !dot:
			dot = true
		case r == '%' && i == len(s)-1:
		case r == 'x' && i == len(s)-1: // ratio suffix like "1.03x"
		default:
			return false
		}
	}
	return digits > 0
}

// writeCSV renders the table as comma-separated values, headers first.
func (t *ResultTable) writeCSV(b *strings.Builder) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Columns) > 0 {
		writeRow(t.headers())
	}
	for _, r := range t.cells() {
		writeRow(r)
	}
}
