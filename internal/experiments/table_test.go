package experiments

import (
	"bytes"
	"encoding/csv"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/workload"
)

// TestTableWriters pins the two writers on a hand-built table: both show the
// same columns and cells, the text aligned, the CSV quoted.
func TestTableWriters(t *testing.T) {
	tb := &Table{
		ID: "x1", Title: "Table X: a hand-built table",
		Columns: []string{"q", "note", "n"},
		Rows: [][]string{
			{"wider than its header", `says "hi", twice`, "1"},
			{"b", "", "22"},
		},
		Notes: []string{"a footer"},
	}
	var text, buf bytes.Buffer
	if err := tb.WriteText(&text); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	want := "### x1\n" +
		"Table X: a hand-built table\n" +
		"q                      note              n\n" +
		"wider than its header  says \"hi\", twice  1\n" +
		"b                                        22\n" +
		"a footer\n"
	if text.String() != want {
		t.Errorf("text:\n%s\nwant:\n%s", text.String(), want)
	}
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !strings.Contains(buf.String(), `"says ""hi"", twice"`) {
		t.Errorf("CSV does not quote the comma-and-quote cell:\n%s", buf.String())
	}
	got, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("re-parsing CSV: %v", err)
	}
	if !reflect.DeepEqual(got, append([][]string{tb.Columns}, tb.Rows...)) {
		t.Errorf("CSV round trip = %q (the footer is text only)", got)
	}

	// No rows: the text is title and header, the CSV the header alone.
	tb.Rows, tb.Notes = nil, nil
	text.Reset()
	buf.Reset()
	if err := tb.WriteText(&text); err != nil || text.String() != "### x1\nTable X: a hand-built table\nq  note  n\n" {
		t.Errorf("empty table text = %q, %v", text.String(), err)
	}
	if err := tb.WriteCSV(&buf); err != nil || buf.String() != "q,note,n\n" {
		t.Errorf("empty table CSV = %q, %v", buf.String(), err)
	}
}

// TestTypedRowTables feeds the table() of every typed row set hand-built
// rows: each row has one cell per column, and the pinned cells read as the
// paper's tables print them.
func TestTypedRowTables(t *testing.T) {
	single := map[platform.ID]string{platform.Java: "1s", platform.Spark: "2s", platform.Flink: "3s"}
	type pin struct {
		row, col int
		want     string
	}
	for _, tc := range []struct {
		name  string
		table *Table
		pins  []pin
	}{
		{"fig1", fig1Table([]Fig1Row{{Task: "TPC-H Q3", Operators: 18, TraditionalMs: 2, VectorMs: 1, Factor: 2}}),
			[]pin{{0, 0, "TPC-H Q3"}, {0, 1, "18"}, {0, 3, "1.00"}, {0, 4, "2.0x"}}},
		{"fig2", fig2Table([]Fig2Row{{Query: "Aggregate", Input: "200GB input", WellLabel: "182.1s (Spark)", SimplyLabel: "out-of-memory (Java)"}}),
			[]pin{{0, 2, "182.1s (Spark)"}, {0, 3, "out-of-memory (Java)"}}},
		{"table1", table1Table([]Table1Row{
			{Operators: 5, Platforms: 2, WithPruning: 26, WithoutPruning: 70, Measured: true},
			{Operators: 20, Platforms: 2, WithPruning: 116, WithoutPruning: 1e6},
		}), []pin{{0, 0, "(5,2)"}, {0, 1, "26"}, {0, 2, "70"}, {1, 2, "1e+06 (search space)"}}},
		{"table2", table2Table([]workload.Query{{Name: "SGD", Description: "stochastic gradient descent", Operators: 6,
			Dataset: "HIGGS", MinBytes: 740 * workload.MB, MaxBytes: workload.TB}}),
			[]pin{{0, 2, "6"}, {0, 3, "HIGGS (740MB - 1TB)"}}},
		{"fig8", fig8Table([]Fig8Row{{Cardinality: 1e5, Actual: 6, Interpolated: 6, TrainingPt: true}, {Cardinality: 2.5e6}}),
			[]pin{{0, 0, "1e+05"}, {0, 2, "6.00"}, {0, 3, "*"}, {1, 0, "2.5e+06"}, {1, 3, ""}}},
		{"fig9", fig9Table([]Fig9Row{{Operators: 80, Platforms: 5, ExhaustiveMs: -1, RheemixMs: 8.9, RheemMLMs: -1, RoboptMs: 3.8}}),
			[]pin{{0, 0, "80"}, {0, 2, "-"}, {0, 4, "-"}, {0, 5, "3.80"}}},
		{"fig10", fig10Table([]Fig10Row{{Joins: 5, Platforms: 5, PriorityMs: 3, TopDownMs: 2233, BottomUpMs: 1.6, Vectors: [3]int{1355, 2055, 1455}}}),
			[]pin{{0, 3, "2233.00"}, {0, 5, "1355/2055/1455"}}},
		{"fig11", fig11Table([]Fig11Point{{
			Query: "WordCount", Bytes: 3e9, Labels: single,
			Rheemix: platform.Spark, Robopt: platform.Java, Fastest: platform.Java,
		}}), []pin{{0, 0, "WordCount"}, {0, 1, "3GB"}, {0, 3, "2s"}, {0, 5, "Spark"}, {0, 7, "Java"}}},
		{"table3", table3Table([]Table3Row{{Query: "SGD", RoboptMax: 1}}), []pin{{0, 0, "SGD"}, {0, 3, "1.0"}}},
		{"fig12", fig12Table([]Fig12Row{{Query: "K-means", Param: "#centroids=10", Single: single, RheemixLb: "a", RoboptLb: "b"}}),
			[]pin{{0, 0, "K-means"}, {0, 4, "3s"}, {0, 6, "b"}}},
		{"fig13", fig13Table([]Fig13Row{{Bytes: 1e10, PostgresRT: "34.1s", RheemixLb: "x", RoboptLb: "y"}}),
			[]pin{{0, 0, "10GB"}, {0, 1, "34.1s"}}},
	} {
		for i, row := range tc.table.Rows {
			if len(row) != len(tc.table.Columns) {
				t.Fatalf("%s row %d: %d cells for %d columns", tc.name, i, len(row), len(tc.table.Columns))
			}
		}
		for _, p := range tc.pins {
			if got := tc.table.Rows[p.row][p.col]; got != p.want {
				t.Errorf("%s [%d][%d] (%s) = %q, want %q", tc.name, p.row, p.col, tc.table.Columns[p.col], got, p.want)
			}
		}
	}
	notes := fig11Table([]Fig11Point{{Rheemix: platform.Spark, Robopt: platform.Java, Fastest: platform.Java}}).Notes
	if want := "fastest-platform hit rate: robopt 1/1 (100%), rheemix 0/1 (0%)"; len(notes) != 1 || notes[0] != want {
		t.Errorf("fig11 notes = %q, want %q", notes, want)
	}
}

func TestAllExperimentsListed(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Errorf("All() lists %d experiments, want the paper's 14", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || seen[e.ID] {
			t.Errorf("experiment ID %q is empty or listed twice", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Errorf("%s has no Run", e.ID)
		}
	}
}

// TestAppendixMatchesCode runs the experiments that are deterministic and
// need no trained model and compares their text, byte for byte, with the
// blocks of EXPERIMENTS.md's appendix (scripts/regen_appendix.sh rewrites it).
func TestAppendixMatchesCode(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness()
	for _, e := range All() {
		if !slices.Contains([]string{"table1", "table2", "fig2", "fig8"}, e.ID) {
			continue
		}
		tb, err := e.Run(h)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		var text bytes.Buffer
		if err := tb.WriteText(&text); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		_, block, found := bytes.Cut(doc, []byte("\n### "+e.ID+"\n"))
		block, _, _ = bytes.Cut(block, []byte("\n\n"))
		if got := "### " + e.ID + "\n" + string(block) + "\n"; !found || got != text.String() {
			t.Errorf("EXPERIMENTS.md's %s block is not what the code prints; run scripts/regen_appendix.sh\ncommitted:\n%s\nprinted:\n%s",
				e.ID, got, text.String())
		}
	}
}
