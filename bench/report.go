package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// envelope says where and how a report's numbers were taken; it is
// written by the program, never by hand.
type envelope struct {
	Commit     string  `json:"commit"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Started    string  `json:"started"`
}

// report is the file -json writes and -compare reads. Claim is always
// null: the benchmark measures, it does not claim a gain.
type report struct {
	Envelope       envelope           `json:"envelope"`
	Claim          *string            `json:"claim"`
	Runs           []runRecord        `json:"runs"`
	TraceWallRatio map[string]float64 `json:"trace_wall_ratio,omitempty"`
	Selfcheck      []compareRow       `json:"selfcheck,omitempty"`
}

func newEnvelope(seed int64, seconds, scale float64) envelope {
	return envelope{
		Commit:     commit(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Scale:      scale,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the revision the binary was built from when the toolchain
// stamped one, else the checkout's HEAD read from .git, else "unknown"
// (the driver's checkout is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if data, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &rep, nil
}
