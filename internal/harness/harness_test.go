package harness

import (
	"strings"
	"testing"

	"godcdo/internal/metrics"
)

// Each experiment must run cleanly and pass its own shape criteria — these
// are the paper's reproduction pass/fail gates.

func requirePassed(t *testing.T, rep *Report) {
	t.Helper()
	if rep.Table == nil {
		t.Fatalf("%s: no table", rep.ID)
	}
	for _, c := range rep.Checks {
		if !c.Pass {
			t.Errorf("%s: check %q failed: %s", rep.ID, c.Name, c.Detail)
		}
	}
	out := rep.String()
	if !strings.Contains(out, rep.ID) {
		t.Fatalf("%s: report rendering missing ID:\n%s", rep.ID, out)
	}
}

func TestRunE1(t *testing.T) {
	rep, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunE2(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP sweep")
	}
	rep, err := RunE2()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunE3(t *testing.T) {
	rep, err := RunE3()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunE4(t *testing.T) {
	rep, err := RunE4()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunE5(t *testing.T) {
	rep, err := RunE5()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunE6(t *testing.T) {
	rep, err := RunE6()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunE7(t *testing.T) {
	rep, err := RunE7()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunE8(t *testing.T) {
	rep, err := RunE8()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunE9(t *testing.T) {
	rep, err := RunE9()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunE10(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive transport comparison")
	}
	rep, err := RunE10()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunE11(t *testing.T) {
	rep, err := RunE11()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunE12(t *testing.T) {
	if testing.Short() {
		t.Skip("16k loopback calls plus slow-call incidents")
	}
	rep, err := RunE12()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunE13(t *testing.T) {
	rep, err := RunE13()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunAllOrderAndPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	reports, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 15 {
		t.Fatalf("reports = %d, want 15", len(reports))
	}
	wantIDs := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}
	for i, rep := range reports {
		if rep.ID != wantIDs[i] {
			t.Errorf("report %d = %s, want %s", i, rep.ID, wantIDs[i])
		}
		if !rep.Passed() {
			t.Errorf("%s did not pass:\n%s", rep.ID, rep.String())
		}
	}
}

func TestReportStringShowsFailures(t *testing.T) {
	rep := &Report{
		ID:    "EX",
		Title: "test",
		Table: metrics.NewTable("t", "col"),
		Checks: []Check{
			{Name: "good", Pass: true, Detail: "ok"},
			{Name: "bad", Pass: false, Detail: "broken"},
		},
	}
	if rep.Passed() {
		t.Fatal("report with failing check passed")
	}
	out := rep.String()
	if !strings.Contains(out, "[FAIL] bad") || !strings.Contains(out, "[PASS] good") {
		t.Fatalf("rendering:\n%s", out)
	}
}

func TestRunE14(t *testing.T) {
	rep, err := RunE14()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}

func TestRunE15(t *testing.T) {
	if testing.Short() {
		t.Skip("thousands of loopback calls for the alloc rows")
	}
	rep, err := RunE15()
	if err != nil {
		t.Fatal(err)
	}
	requirePassed(t, rep)
}
