package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// matchGolden holds a report to testdata/<name>.golden byte for byte:
// the experiments are seeded end to end, so every refactor of the
// pipeline must print the same numbers. A change that means to move a
// number rewrites the file by hand and says why.
func matchGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("report differs from testdata/%s.golden\n--- got:\n%s--- want:\n%s", name, got, want)
	}
}

func TestParseScale(t *testing.T) {
	for name, want := range map[string]Scale{"tiny": ScaleTiny, "small": ScaleSmall} {
		if got, err := ParseScale(name); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "foo", "Tiny", "large"} {
		if _, err := ParseScale(name); err == nil {
			t.Errorf("ParseScale(%q) accepted an unknown scale", name)
		}
	}
}

func TestTableIFormat(t *testing.T) {
	s := TableI()
	for _, want := range []string{"l1", "l6", "400", "1400", "916.25", "1240"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestTableIIShape(t *testing.T) {
	res, err := TableII(ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	e1, e2, e3 := res.Rows[0], res.Rows[1], res.Rows[2]
	// E2 (DVFS only) runs more than E1 but violates timing at low levels.
	if e2.Runs <= e1.Runs {
		t.Fatalf("E2 (%d) should beat E1 (%d)", e2.Runs, e1.Runs)
	}
	if e2.Satisfied {
		t.Fatal("E2 should violate the timing constraint")
	}
	// E3 (HW+SW) beats E1 and satisfies timing everywhere.
	if e3.Runs <= e1.Runs {
		t.Fatalf("E3 (%d) should beat E1 (%d)", e3.Runs, e1.Runs)
	}
	if !e3.Satisfied {
		t.Fatal("E3 must satisfy the timing constraint")
	}
	if e3.Improvement < 1.3 {
		t.Fatalf("E3 improvement only %.2fx", e3.Improvement)
	}
	if !strings.Contains(res.String(), "E3") {
		t.Fatal("formatting lost E3")
	}
	matchGolden(t, "tab2", res.String())
}

func TestTableIIIWikiTextTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full AutoML pipeline")
	}
	res, err := TableIII(ScaleTiny, Table3Spec{Dataset: "WikiText-2", TimingMS: 104, DenseMS: 160, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SubModels) != 3 {
		t.Fatalf("sub-models %d", len(res.SubModels))
	}
	for _, sm := range res.SubModels {
		if sm.LatencyMS > 104 {
			t.Fatalf("sub-model at %s violates timing: %.2f ms", sm.Level, sm.LatencyMS)
		}
		if sm.Sparsity <= 0 || sm.Sparsity >= 1 {
			t.Fatalf("sparsity %g out of range", sm.Sparsity)
		}
	}
	// the headline claim: pattern-set switching is orders of magnitude
	// faster than full model reload
	if res.UBInterruptMS/res.RTInterruptMS < 100 {
		t.Fatalf("switch speedup only %.0fx", res.UBInterruptMS/res.RTInterruptMS)
	}
	if res.RTInterruptMS > 1000 {
		t.Fatalf("RT3 interrupt %.2f ms should be sub-second", res.RTInterruptMS)
	}
	matchGolden(t, "tab3_wikitext", res.String())
}

func TestFigure3aFrontsDominate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full searches")
	}
	res, err := Figure3a(ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LooseFront) == 0 || len(res.TightFront) == 0 {
		t.Fatal("empty Pareto fronts")
	}
	matchGolden(t, "fig3a", res.String())
}

func TestFigure3bcSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the per-level sub-models")
	}
	res, err := Figure3bc(ScaleTiny, 104)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RT3) != 3 || len(res.UpperBound) != 3 {
		t.Fatalf("series lengths %d/%d", len(res.RT3), len(res.UpperBound))
	}
	if res.OriginalAcc <= 0 {
		t.Fatal("original accuracy not positive")
	}
	matchGolden(t, "fig3bc", res.String())
}

func TestFigure4Patterns(t *testing.T) {
	if testing.Short() {
		t.Skip("prunes and retrains a backbone")
	}
	res, err := Figure4(ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rendered) != 3 {
		t.Fatalf("patterns %d", len(res.Rendered))
	}
	for i, art := range res.Rendered {
		if !strings.Contains(art, "#") {
			t.Fatalf("pattern %d has no kept positions:\n%s", i, art)
		}
		if res.Sparsities[i] < 0 || res.Sparsities[i] >= 1 {
			t.Fatalf("sparsity %g", res.Sparsities[i])
		}
	}
	matchGolden(t, "fig4", res.String())
}

func TestFigure5AllTasks(t *testing.T) {
	if testing.Short() {
		t.Skip("trains ten models")
	}
	res, err := Figure5(ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 { // 9 GLUE + WikiText-2
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.PruneRate < 1.2 {
			t.Errorf("%s: compression %.2fx below the paper's band", row.Task, row.PruneRate)
		}
	}
	matchGolden(t, "fig5", res.String())
}

func TestTableIVWikiTextTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six pipelines")
	}
	res, err := TableIV(ScaleTiny, "WikiText-2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	byName := map[string]int{}
	for i, row := range res.Rows {
		byName[row.Method.String()] = i
	}
	noOpt := res.Rows[byName["No-Opt"]]
	rt3Row := res.Rows[byName["RT3"]]
	bpOnly := res.Rows[byName["BP only"]]
	if noOpt.AvgSparsity != 0 || noOpt.Improvement != 1 {
		t.Fatalf("No-Opt row wrong: %+v", noOpt)
	}
	// pruning must increase runs: RT3 and BP beat No-Opt
	if rt3Row.Improvement <= 1 {
		t.Fatalf("RT3 improvement %.2fx", rt3Row.Improvement)
	}
	if bpOnly.Improvement <= 1 {
		t.Fatalf("BP-only improvement %.2fx", bpOnly.Improvement)
	}
	// RT3 (BP+PP) must achieve more sparsity (hence more runs) than BP alone
	if rt3Row.AvgSparsity <= bpOnly.AvgSparsity {
		t.Fatalf("RT3 sparsity %.2f <= BP %.2f", rt3Row.AvgSparsity, bpOnly.AvgSparsity)
	}
	matchGolden(t, "tab4_wikitext", res.String())
}

func TestTableIVUnknownDataset(t *testing.T) {
	if _, err := TableIV(ScaleTiny, "nope"); err == nil {
		t.Fatal("expected error")
	}
}
