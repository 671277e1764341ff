// Command bench is the repository's one performance benchmark: a
// reference RT3 deployment (LM 192x768, three V/F levels) driven through
// the public serve.Server API by four seeded closed-loop workloads.
//
// One run measures one workload: untraced for the end-to-end metrics a
// caller sees, or traced — through timing shims the benchmark owns —
// for the per-layer metrics. The last line of standard output is the
// result as one JSON object. See README.md in this directory.
//
//	go run ./bench -workload decode_heavy -seed 1            one untraced run
//	go run ./bench -workload decode_heavy -seed 1 -trace 1   its traced twin
//	go run ./bench -all -seed 1 -json out.json               every workload, both ways
//	go run ./bench -selfcheck -repeat 3 -json spread.json    two sets of runs must agree
//	go run ./bench -compare old.json new.json                verdict per metric and workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

func main() {
	var (
		name      = flag.String("workload", "", "decode_heavy, prefill_heavy, shared_prefix or dvfs_dance: run it, or narrow -all and -selfcheck to it")
		all       = flag.Bool("all", false, "run every workload untraced and traced, each in a fresh process")
		seed      = flag.Int64("seed", 1, "seed of the generated requests (the deployment's weights are fixed)")
		seconds   = flag.Float64("seconds", referenceSeconds, "main-phase length the fixed request counts are scaled to")
		scale     = flag.Float64("scale", 1, "multiplier on request counts; 0.1 is a smoke run")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics through the timing shims")
		traceOut  = flag.String("trace-out", "", "traced run: write every span as Chrome trace_event JSON to this file")
		jsonOut   = flag.String("json", "", "write the full report (envelope, runs, sample counts) to this file")
		compare   = flag.Bool("compare", false, "compare two report files: -compare old.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of -repeat untraced runs and require their medians to agree")
		repeat    = flag.Int("repeat", 1, "untraced runs per workload (seeds seed, seed+1, ...); -selfcheck defaults to 3")
		bounds    = flag.String("bounds", "BENCHMARK.json", "file holding the metrics' directions and bounds")
	)
	flag.Parse()

	// -workload alone runs that workload here; with -all or -selfcheck it
	// narrows them to it
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(1)
		}
		selected = []workload{w}
	}
	if *seconds <= 0 || *scale <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -scale must be positive")
		os.Exit(1)
	}

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two report files")
			break
		}
		err = compareFiles(*bounds, flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		if *repeat < 2 {
			*repeat = 3
		}
		err = runSelfcheck(selected, *bounds, *seed, *seconds, *scale, *repeat, *jsonOut)
	case *all:
		err = runAll(selected, *seed, *seconds, *scale, *repeat, *jsonOut)
	case *name != "":
		err = runOne(selected[0], runOpts{
			seed: *seed, seconds: *seconds, scale: *scale, trace: *trace != 0, traceOut: *traceOut,
		}, *jsonOut)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// result is the last line of a single run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process, prints its metrics and ends
// standard output with the result line. A failed request or output
// mismatch still prints the result, then exits nonzero.
func runOne(w workload, o runOpts, jsonOut string) error {
	rec, err := runWorkload(referenceShape, w, o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	printRun(rec)
	if jsonOut != "" {
		if err := writeReport(jsonOut, &report{Envelope: newEnvelope(o.seed, o.seconds, o.scale), Runs: []runRecord{*rec}}); err != nil {
			return err
		}
	}
	res := result{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]resultValue{}}
	for k, m := range rec.Metrics {
		res.Metrics[k] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rec.Failed > 0 {
		return fmt.Errorf("%s: %d of %d requests failed or mismatched the dense reference", w.name, rec.Failed, rec.Attempted)
	}
	return nil
}

// printRun lists a run's metrics by name, value, unit and sample count.
func printRun(rec *runRecord) {
	kind := "end-to-end"
	if rec.Trace == 1 {
		kind = "per-layer"
	}
	fmt.Printf("%s seed %d: %d requests in %.2f s (whole run %.1f s), %d failed, %d outputs checked against the dense reference\n",
		rec.Workload, rec.Seed, rec.Requests, rec.WallS, rec.RunS, rec.Failed, rec.Checked)
	if rec.OutputHash != "" {
		fmt.Printf("output_hash %s\n", rec.OutputHash)
	}
	fmt.Printf("failed_share %.4f\n", float64(rec.Failed)/float64(rec.Attempted))
	fmt.Printf("host slowdown %.3f in the timed phase, %.3f during set-up (reference unit's mean time / nominal)\n", rec.HostSlowdown, rec.SetupSlowdown)
	if rec.Trace == 0 {
		fmt.Println("end-to-end times are divided and rates multiplied by it; multiply or divide back for this host's wall clock")
	}
	fmt.Printf("%s metrics:\n", kind)
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Metrics[k]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Printf("  %-40s %14.4f %-8s%s\n", k, m.Value, m.Unit, n)
	}
}

// childRun runs one workload in a fresh process of this same binary and
// reads its record back. A run with failed requests still returns its
// record, alongside the error.
func childRun(name string, o runOpts) (*runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%t.json", name, o.seed, o.trace))
	defer os.Remove(path)
	traceFlag := "0"
	if o.trace {
		traceFlag = "1"
	}
	cmd := exec.Command(exe,
		"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-trace", traceFlag, "-json", path)
	out, runErr := cmd.CombinedOutput()
	rep, err := readReport(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %v\n%s", name, runErr, out)
	}
	if runErr != nil {
		runErr = fmt.Errorf("%s seed %d: %v", name, o.seed, runErr)
	}
	return &rep.Runs[0], runErr
}

// runAll measures every workload: repeat untraced runs and one traced
// run each, every run in its own process so none inherits another's
// heap, caches or high-water mark.
func runAll(selected []workload, seed int64, seconds, scale float64, repeat int, jsonOut string) error {
	rep := &report{Envelope: newEnvelope(seed, seconds, scale), TraceWallRatio: map[string]float64{}}
	// run records one child run; a run with failed requests is kept and
	// remembered as the error to return, a run with no record ends -all
	var failedRun error
	run := func(w workload, seed int64, trace bool) (*runRecord, error) {
		rec, err := childRun(w.name, runOpts{seed: seed, seconds: seconds, scale: scale, trace: trace})
		if rec == nil {
			return nil, err
		}
		if err != nil && failedRun == nil {
			failedRun = err
		}
		printRun(rec)
		rep.Runs = append(rep.Runs, *rec)
		return rec, nil
	}
	for _, w := range selected {
		var untracedWall float64
		for i := 0; i < max(repeat, 1); i++ {
			rec, err := run(w, seed+int64(i), false)
			if err != nil {
				return err
			}
			if i == 0 {
				untracedWall = rec.WallS
			}
		}
		rec, err := run(w, seed, true)
		if err != nil {
			return err
		}
		// same seed, same requests: the wall difference is what tracing cost
		rep.TraceWallRatio[w.name] = rec.WallS/untracedWall - 1
		fmt.Printf("%s: traced wall / untraced wall - 1 = %+.4f\n\n", w.name, rep.TraceWallRatio[w.name])
	}
	if repeat > 1 {
		printSpread(rep.Runs)
	}
	if jsonOut != "" {
		if err := writeReport(jsonOut, rep); err != nil {
			return err
		}
	}
	return failedRun
}
