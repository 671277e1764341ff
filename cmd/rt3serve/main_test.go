package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, set to 1 in a test binary's environment, makes the binary
// run main() instead of the tests, so a test can start it as rt3serve.
const runMainEnv = "RT3SERVE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// rt3serve runs this test binary as rt3serve with args and returns its
// stdout, stderr and exit status.
func rt3serve(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		status = exit.ExitCode()
	}
	return out.String(), errOut.String(), status
}

// TestClusterSmokeGolden holds the two-node smoke at seed 1 — the
// bundle table, the router line, the placement table and the trace
// replay line — to testdata/cluster_smoke.golden byte for byte. The
// smoke pins each session to one node and replays every pick, so its
// output does not depend on timing.
func TestClusterSmokeGolden(t *testing.T) {
	out, errOut, status := rt3serve(t, "-cluster", "2", "-quiet")
	if status != 0 {
		t.Fatalf("rt3serve -cluster 2 -quiet exited %d: %s", status, errOut)
	}
	want, err := os.ReadFile("testdata/cluster_smoke.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("rt3serve -cluster 2 -quiet printed\n%s\nwant\n%s", out, want)
	}
}

// TestClusterLoad: the fleet's -load run rolls the two nodes out to the
// slowest level mid-run through the chaos injector, fails nothing, and
// replays its decision trace.
func TestClusterLoad(t *testing.T) {
	out, errOut, status := rt3serve(t, "-cluster", "2", "-load", "-duration", "300ms", "-quiet")
	if status != 0 {
		t.Fatalf("rt3serve -cluster 2 -load exited %d: %s\n%s", status, errOut, out)
	}
	for _, want := range []string{"rolled out level 2", "decision replay:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rt3serve -cluster 2 -load printed no %q:\n%s", want, out)
		}
	}
}

// TestRefusals: a flag combination that cannot run exits 1, names the
// flag at fault and builds nothing first.
func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-chaos", "crash"}, "-chaos"},
		{[]string{"-cluster", "2", "-autotune"}, "-autotune"},
		{[]string{"-autotune"}, "-autotune"},
		{[]string{"-cluster", "2", "-router", "p2c"}, "-router"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			out, errOut, status := rt3serve(t, tc.args...)
			if status != 1 || !strings.Contains(errOut, tc.flag) {
				t.Fatalf("exited %d with %q, want 1 naming %s", status, errOut, tc.flag)
			}
			if out != "" {
				t.Fatalf("printed %q before refusing", out)
			}
		})
	}
}
