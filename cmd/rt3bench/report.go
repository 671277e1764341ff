package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"text/tabwriter"
)

// jsonReport is the -json output: one section per structured experiment
// (kernels, autotune, cluster, chaos), each carrying the rows its tables
// printed plus a snapshot of the obs instruments the run touched.
type jsonReport struct {
	Kernels  *kernelsSection  `json:"kernels,omitempty"`
	Autotune *autotuneSection `json:"autotune,omitempty"`
	Cluster  *clusterSection  `json:"cluster,omitempty"`
	Chaos    *chaosSection    `json:"chaos,omitempty"`
}

// write serializes the report to path.
func (r *jsonReport) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printRows writes rows, a slice of structs, as a table with one column
// per JSON field, headed by the field's JSON name: -json carries the same
// rows, so no result is formatted twice. Floats print with two decimals.
func printRows[R any](w io.Writer, rows []R) {
	t := reflect.TypeOf(rows).Elem()
	var cols []int
	var cells []string
	for i := range t.NumField() {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if name != "" && name != "-" {
			cols = append(cols, i)
			cells = append(cells, name)
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, strings.Join(cells, "\t")+"\t")
	for _, row := range rows {
		v := reflect.ValueOf(row)
		for j, i := range cols {
			if f := v.Field(i); f.Kind() == reflect.Float64 {
				cells[j] = strconv.FormatFloat(f.Float(), 'f', 2, 64)
			} else {
				cells[j] = fmt.Sprint(f.Interface())
			}
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t")+"\t")
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// floorer is an experiment's section: floors checks its rows against
// the experiment's floors, a pure function that returns the PASS lines
// of the floors held up to the first one missed.
type floorer interface{ floors() ([]string, error) }

// enforce prints a finished experiment's floor PASS lines and returns
// the run's error or else its first missed floor.
func enforce(s floorer, err error) error {
	if err != nil {
		return err
	}
	pass, err := s.floors()
	for _, l := range pass {
		fmt.Println(l)
	}
	return err
}
