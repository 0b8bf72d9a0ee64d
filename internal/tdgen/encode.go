package tdgen

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/mlmodel"
)

// WriteCSV writes the dataset as CSV: one row per job, feature cells
// followed by the runtime label in the final column. A header row names the
// columns f0..fN-1, runtime.
func WriteCSV(w io.Writer, ds *mlmodel.Dataset) error {
	cw := csv.NewWriter(w)
	nf := ds.NumFeatures()
	header := make([]string, nf+1)
	for i := 0; i < nf; i++ {
		header[i] = fmt.Sprintf("f%d", i)
	}
	header[nf] = "runtime"
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, nf+1)
	for i, x := range ds.X {
		for j, v := range x {
			row[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		row[nf] = strconv.FormatFloat(ds.Y[i], 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a dataset written by WriteCSV: the first row is the header
// and is skipped, so a file without one would lose its first sample. A
// header with no rows is refused, not read as an empty dataset.
func ReadCSV(r io.Reader) (*mlmodel.Dataset, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 1 {
		return nil, fmt.Errorf("tdgen: empty CSV")
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("tdgen: CSV has a header and no rows")
	}
	ds := &mlmodel.Dataset{}
	for ri, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			return nil, fmt.Errorf("tdgen: row %d has %d columns, want %d", ri+1, len(row), len(rows[0]))
		}
		x := make([]float64, len(row)-1)
		for j := 0; j < len(row)-1; j++ {
			v, err := strconv.ParseFloat(row[j], 64)
			if err != nil {
				return nil, fmt.Errorf("tdgen: row %d column %d: %w", ri+1, j, err)
			}
			x[j] = v
		}
		y, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("tdgen: row %d label: %w", ri+1, err)
		}
		ds.Append(x, y)
	}
	return ds, ds.Validate()
}
