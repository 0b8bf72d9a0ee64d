package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/workload"
)

// Table is one experiment's result as it is printed: every cell already a
// string, so the text and the CSV writer show the same columns and cells.
type Table struct {
	ID, Title string
	Columns   []string
	Rows      [][]string
	Notes     []string // footer lines below the rows (text only)
}

// WriteText prints the table as "### ID", its title, and the columns aligned
// under their headers, followed by the notes.
func (t *Table) WriteText(out io.Writer) error {
	lines := append([][]string{t.Columns}, t.Rows...)
	width := make([]int, len(t.Columns))
	for _, row := range lines {
		for i, c := range row {
			width[i] = max(width[i], utf8.RuneCountInString(c))
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s\n%s\n", t.ID, t.Title)
	for _, row := range lines {
		var line strings.Builder
		for i, c := range row {
			fmt.Fprintf(&line, "%-*s  ", width[i], c)
		}
		sb.WriteString(strings.TrimRight(line.String(), " ") + "\n")
	}
	for _, n := range t.Notes {
		sb.WriteString(n + "\n")
	}
	_, err := io.WriteString(out, sb.String())
	return err
}

// WriteCSV writes the column names and the rows as CSV.
func (t *Table) WriteCSV(out io.Writer) error {
	cw := csv.NewWriter(out)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows) // flushes
}

// Experiment is one table or figure of the paper's evaluation: its
// benchharness ID and the function that measures and tabulates it.
type Experiment struct {
	ID  string
	Run func(*Harness) (*Table, error)
}

// experiment pairs a row producer with the table() of its row type.
func experiment[R any](id, title string, rows func(*Harness) ([]R, error), table func([]R) *Table) Experiment {
	return Experiment{ID: id, Run: func(h *Harness) (*Table, error) {
		rs, err := rows(h)
		if err != nil {
			return nil, err
		}
		t := table(rs)
		t.ID, t.Title = id, title
		return t, nil
	}}
}

// tabulate builds the table of a typed row set: one row of cells per element.
func tabulate[R any](rows []R, columns []string, cells func(R) []string) *Table {
	t := &Table{Columns: columns}
	for _, r := range rows {
		t.Rows = append(t.Rows, cells(r))
	}
	return t
}

// All lists the paper's 14 results in the order benchharness prints them. It
// is the one place their IDs and titles are written.
func All() []Experiment {
	fig9bcd := func(nOps int) func(*Harness) ([]Fig9Row, error) {
		return func(h *Harness) ([]Fig9Row, error) { return h.Figure9bcd(nOps) }
	}
	return []Experiment{
		experiment("table2", "Table II: Real queries and datasets",
			func(*Harness) ([]workload.Query, error) { return workload.Catalog(), nil }, table2Table),
		experiment("fig1", "Figure 1: Benefit of using vectors in the plan enumeration (2 platforms)", (*Harness).Figure1, fig1Table),
		experiment("fig2", "Figure 2: Impact of a well-tuned cost model (single-platform choice)", (*Harness).Figure2, fig2Table),
		experiment("table1", "Table I: Number of enumerated subplans", (*Harness).Table1, table1Table),
		experiment("fig8", "Figure 8: Interpolation to predict job runtimes", (*Harness).Figure8, fig8Table),
		experiment("fig9a", "Figure 9a: latency vs #operators (2 platforms)", (*Harness).Figure9a, fig9Table),
		experiment("fig9b", "Figure 9b: latency vs #platforms (5 operators)", fig9bcd(5), fig9Table),
		experiment("fig9c", "Figure 9c: latency vs #platforms (20 operators)", fig9bcd(20), fig9Table),
		experiment("fig9d", "Figure 9d: latency vs #platforms (80 operators)", fig9bcd(80), fig9Table),
		experiment("fig10", "Figure 10: Effectiveness of priority-based enumeration (join queries)", (*Harness).Figure10, fig10Table),
		experiment("fig11", "Figure 11: Single-platform execution mode", (*Harness).Figure11, fig11Table),
		experiment("table3", "Table III: Runtime difference from the optimal platform (seconds)",
			func(h *Harness) ([]Table3Row, error) {
				points, err := h.Figure11() // the grid fig11 ran, not a second one
				return h.Table3(points), err
			}, table3Table),
		experiment("fig12", "Figure 12: Multiple-platform execution mode", (*Harness).Figure12, fig12Table),
		experiment("fig13", "Figure 13: Join query with data resident in Postgres", (*Harness).Figure13, fig13Table),
	}
}
