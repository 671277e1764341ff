package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// boundDef is one end_to_end entry of BENCHMARK.json: the direction a
// metric improves in and the share of the old median by which it may
// get worse before that counts as a regression.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]boundDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return spec.EndToEnd, nil
}

// Verdicts of one (metric, workload) row.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is the comparison of one metric on one workload between
// two sets of untraced runs.
type compareRow struct {
	Metric    string  `json:"metric"`
	Workload  string  `json:"workload"`
	Unit      string  `json:"unit"`
	Old       float64 `json:"old_median"`
	New       float64 `json:"new_median"`
	OldSpread float64 `json:"old_spread"` // interquartile distance / median; 0 from a single run
	NewSpread float64 `json:"new_spread"`
	Worse     float64 `json:"worse_by"` // share of the old median; negative is an improvement
	Bound     float64 `json:"bound"`
	Verdict   string  `json:"verdict"`
}

// values collects one metric of one workload over the untraced runs.
func values(runs []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge compares the medians of two sets of values. A difference is
// only called when the run-to-run spread is no wider than the bound;
// otherwise the row is unresolved, unless every new value beats every
// old one. setup_s is judged on its medians alone, as the driver does:
// a set-up is a third of a second, and five of them do not average out
// this host's spells.
func judge(def boundDef, old, cur []float64) compareRow {
	row := compareRow{
		Metric: def.Name, Unit: def.Unit, Bound: def.Bound,
		Old: median(old), New: median(cur),
		OldSpread: spreadShare(old), NewSpread: spreadShare(cur),
	}
	sign := 1.0 // lower is better: growing is worse
	if def.Better == "higher" {
		sign = -1
	}
	if row.Old != 0 {
		row.Worse = sign * (row.New - row.Old) / math.Abs(row.Old)
	}
	allBetter := true
	for _, n := range cur {
		for _, o := range old {
			if sign*(n-o) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case def.Name != "setup_s" && math.Max(row.OldSpread, row.NewSpread) > def.Bound:
		row.Verdict = verdictUnresolved
		if allBetter {
			row.Verdict = verdictBetter
		}
	case row.Worse > def.Bound:
		row.Verdict = verdictWorse
	case row.Worse < -def.Bound:
		row.Verdict = verdictBetter
	default:
		row.Verdict = verdictWithin
	}
	return row
}

// compareRuns gives one row per (metric, workload) present in both sets.
func compareRuns(defs []boundDef, old, cur []runRecord) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		for _, def := range defs {
			o, n := values(old, w.name, def.Name), values(cur, w.name, def.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			row := judge(def, o, n)
			row.Workload = w.name
			rows = append(rows, row)
		}
	}
	return rows
}

func printRows(rows []compareRow, oldName, newName string) {
	fmt.Printf("%-14s %-16s %12s %12s %9s %10s %10s %6s  %s\n",
		"workload", "metric", oldName, newName, "worse_by", "spread_"+oldName, "spread_"+newName, "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-14s %-16s %12.4f %12.4f %+8.1f%% %9.1f%% %9.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.Old, r.New, 100*r.Worse, 100*r.OldSpread, 100*r.NewSpread, 100*r.Bound, r.Verdict)
	}
}

// failedShare is failures over attempts across a workload's runs.
func failedShare(runs []runRecord, workload string) float64 {
	var failed, attempted int
	for _, r := range runs {
		if r.Workload == workload {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles prints one verdict per (metric, workload) and fails on
// any worse row or any workload whose failed share rose.
func compareFiles(boundsPath, oldPath, newPath string) error {
	defs, err := loadBounds(boundsPath)
	if err != nil {
		return err
	}
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	rows := compareRuns(defs, old.Runs, cur.Runs)
	if len(rows) == 0 {
		return fmt.Errorf("the two reports share no untraced runs")
	}
	printRows(rows, "old", "new")
	bad := 0
	for _, r := range rows {
		if r.Verdict == verdictWorse {
			bad++
		}
	}
	for _, w := range workloads {
		if o, n := failedShare(old.Runs, w.name), failedShare(cur.Runs, w.name); n > o {
			fmt.Printf("%-14s failed_share rose from %.4f to %.4f\n", w.name, o, n)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}

// printSpread reports, for repeated untraced runs, each end-to-end
// metric's median, quartiles and spread per workload.
func printSpread(runs []runRecord) {
	fmt.Printf("%-14s %-16s %3s %12s %12s %12s %8s\n", "workload", "metric", "n", "q1", "median", "q3", "spread")
	for _, w := range workloads {
		for _, def := range endToEnd {
			v := values(runs, w.name, def.name)
			if len(v) < 2 {
				continue
			}
			q1, _, q3 := quartiles(v)
			fmt.Printf("%-14s %-16s %3d %12.4f %12.4f %12.4f %7.1f%%\n",
				w.name, def.name, len(v), q1, median(v), q3, 100*spreadShare(v))
		}
	}
}

// runSelfcheck runs two interleaved sets of n untraced runs per
// workload on this build — the same seeds in both — and requires every
// metric's two medians to agree within its bound, with a spread no
// wider than the bound. The rows, spreads included, go into the report.
func runSelfcheck(selected []workload, boundsPath string, seed int64, seconds, scale float64, n int, jsonOut string) error {
	defs, err := loadBounds(boundsPath)
	if err != nil {
		return err
	}
	rep := &report{Envelope: newEnvelope(seed, seconds, scale)}
	var a, b []runRecord
	for _, w := range selected {
		for i := 0; i < n; i++ {
			for _, set := range []*[]runRecord{&a, &b} {
				rec, err := childRun(w.name, runOpts{seed: seed + int64(i), seconds: seconds, scale: scale})
				if err != nil {
					return err
				}
				*set = append(*set, *rec)
				fmt.Printf("%s seed %d: %.2f s\n", w.name, rec.Seed, rec.WallS)
			}
		}
	}
	rep.Runs = append(a, b...)
	rep.Selfcheck = compareRuns(defs, a, b)
	printRows(rep.Selfcheck, "a", "b")
	if jsonOut != "" {
		if err := writeReport(jsonOut, rep); err != nil {
			return err
		}
	}
	bad := 0
	for _, r := range rep.Selfcheck {
		if r.Verdict != verdictWithin {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d of %d rows did not repeat within their bound", bad, len(rep.Selfcheck))
	}
	fmt.Printf("selfcheck passed: %d rows repeat within their bounds\n", len(rep.Selfcheck))
	return nil
}
