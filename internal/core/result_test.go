package core

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewResultTable("T1", Col("workload", ""), Col("ops", "ops"), Col("ratio", "ratio"))
	tb.AddRow("netrx", 1000, 1.03)
	tb.AddRow("syscall", 5, "0.99x")
	s := NewResult(tb).Text()
	want := "T1\n" +
		"workload  ops   ratio\n" +
		"---------------------\n" +
		"netrx     1000   1.03\n" +
		"syscall      5  0.99x\n" +
		"\n"
	if s != want {
		t.Fatalf("text =\n%s\nwant\n%s", s, want)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), s)
	}
	for _, l := range lines {
		if strings.TrimRight(l, " ") != l {
			t.Fatalf("line has trailing spaces: %q", l)
		}
	}
}

// TestTableTextPadsByRunes: a non-ASCII cell is as wide as its rune count,
// not its byte count, so the column after it lines up with the rows above
// and below.
func TestTableTextPadsByRunes(t *testing.T) {
	tb := NewResultTable("", Col("unit", ""), Col("cost", "cycles"))
	tb.AddRow("µµµµµ", 12)
	tb.AddRow("ms", 3456)
	got := NewResult(tb).Text()
	want := "unit   cost\n" +
		"-----------\n" +
		"µµµµµ    12\n" +
		"ms     3456\n" +
		"\n"
	if got != want {
		t.Fatalf("text =\n%s\nwant\n%s", got, want)
	}
}

// TestTableTextShortRows: a row with fewer cells than columns pads the
// missing cells as empty, a row with more widens the table, and a table
// with no columns and no rows renders as its title alone.
func TestTableTextShortRows(t *testing.T) {
	tb := NewResultTable("", Col("a", ""), Col("b", ""))
	tb.AddRow("x")
	tb.AddRow("y", "z", 7)
	got := NewResult(tb).Text()
	want := "a  b\n" +
		"-------\n" +
		"x\n" +
		"y  z  7\n" +
		"\n"
	if got != want {
		t.Fatalf("text =\n%q\nwant\n%q", got, want)
	}
	for title, want := range map[string]string{"": "\n", "Empty": "Empty\n\n"} {
		if got := NewResult(NewResultTable(title)).Text(); got != want {
			t.Errorf("empty table %q text = %q, want %q", title, got, want)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewResultTable("", Col("a", ""), Col("b", ""))
	tb.AddRow(`x,y`, `he said "hi"`)
	tb.AddRow(2.5, uint64(7))
	csv := NewResult(tb).CSV()
	want := "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n2.50,7\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}

func TestLooksNumeric(t *testing.T) {
	cases := map[string]bool{
		"123": true, "-4.5": true, "87%": true, "1.03x": true,
		"abc": false, "": false, "1.2.3": false, "x": false,
	}
	for s, want := range cases {
		if got := looksNumeric(s); got != want {
			t.Errorf("looksNumeric(%q) = %v, want %v", s, got, want)
		}
	}
}
