package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ldv/internal/ldv"
	"ldv/internal/tpch"
)

// testConfig is small enough for unit tests while exercising every code
// path.
func testConfig() Config {
	return Config{SF: 0.001, Seed: 11, Inserts: 20, Selects: 3, Updates: 5}
}

func TestStepTimesAggregates(t *testing.T) {
	st := StepTimes{SelectEach: []time.Duration{10 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}}
	if st.FirstSelect() != 10*time.Millisecond {
		t.Error("first select wrong")
	}
	if st.OtherSelects() != 3*time.Millisecond {
		t.Error("other selects wrong")
	}
	if st.SelectMean() != (16*time.Millisecond)/3 {
		t.Error("mean wrong")
	}
	empty := StepTimes{}
	if empty.FirstSelect() != 0 || empty.OtherSelects() != 0 || empty.SelectMean() != 0 {
		t.Error("empty aggregates must be zero")
	}
}

func TestRunAuditAllSystems(t *testing.T) {
	cfg := testConfig()
	q, err := tpch.QueryByID(cfg.TPCH(), "Q1-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []System{SysPlain, SysPTU, SysSI, SysSE, SysVM} {
		out, err := RunAudit(cfg, q, sys)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if len(out.Steps.SelectEach) != cfg.Selects {
			t.Errorf("%s: selects recorded = %d", sys, len(out.Steps.SelectEach))
		}
		switch sys {
		case SysPlain:
			if out.Package != nil {
				t.Errorf("%s: unexpected package", sys)
			}
		case SysVM:
			if out.Image == nil {
				t.Errorf("%s: missing image", sys)
			}
		default:
			if out.Package == nil || out.Package.TotalSize() == 0 {
				t.Errorf("%s: missing package", sys)
			}
		}
	}
}

func TestPackageSizeOrdering(t *testing.T) {
	// The core Figure 9 shape at low selectivity: PTU > server-included,
	// and VM image > everything.
	cfg := testConfig()
	q, _ := tpch.QueryByID(cfg.TPCH(), "Q1-1")
	ptuOut, err := RunAudit(cfg, q, SysPTU)
	if err != nil {
		t.Fatal(err)
	}
	siOut, err := RunAudit(cfg, q, SysSI)
	if err != nil {
		t.Fatal(err)
	}
	vmOut, err := RunAudit(cfg, q, SysVM)
	if err != nil {
		t.Fatal(err)
	}
	if ptuOut.Package.TotalSize() <= siOut.Package.TotalSize() {
		t.Errorf("PTU %d <= SI %d", ptuOut.Package.TotalSize(), siOut.Package.TotalSize())
	}
	if vmOut.Image.TotalSize() <= ptuOut.Package.TotalSize() {
		t.Errorf("VM %d <= PTU %d", vmOut.Image.TotalSize(), ptuOut.Package.TotalSize())
	}
	if siOut.RelevantTuples == 0 {
		t.Error("SI audit found no relevant tuples")
	}
}

func TestRunReplayAllSystems(t *testing.T) {
	cfg := testConfig()
	q, _ := tpch.QueryByID(cfg.TPCH(), "Q2-2")
	for _, sys := range ReplaySystems() {
		out, err := RunAudit(cfg, q, sys)
		if err != nil {
			t.Fatalf("%s audit: %v", sys, err)
		}
		st, err := RunReplay(cfg, q, sys, out)
		if err != nil {
			t.Fatalf("%s replay: %v", sys, err)
		}
		if len(st.SelectEach) != cfg.Selects {
			t.Errorf("%s: replay selects = %d", sys, len(st.SelectEach))
		}
		if sys != SysSE && st.Init == 0 {
			t.Errorf("%s: init time not recorded", sys)
		}
	}
}

func TestTable2Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(testConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"Q1-1", "Q2-4", "Q3-1", "Q4-5"} {
		if !strings.Contains(out, id) {
			t.Errorf("Table 2 missing %s", id)
		}
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 20 { // header x2 + 18 rows
		t.Errorf("Table 2 line count wrong:\n%s", out)
	}
}

func TestTable3Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(testConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "PTU") || !strings.Contains(out, "(full)") || !strings.Contains(out, "(empty)") {
		t.Errorf("Table 3 output:\n%s", out)
	}
}

func TestFig7aOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7a(testConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, sys := range append([]System{SysPlain}, AuditSystems()...) {
		if !strings.Contains(out, string(sys)) {
			t.Errorf("Fig 7a missing %s:\n%s", sys, out)
		}
	}
}

func TestFig7bOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7b(testConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Initialization") {
		t.Errorf("Fig 7b output:\n%s", buf.String())
	}
}

func TestFig9Output(t *testing.T) {
	cfg := testConfig()
	cfg.Selects = 2
	var buf bytes.Buffer
	if err := Fig9(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 20 {
		t.Errorf("Fig 9 lines = %d:\n%s", len(lines), buf.String())
	}
}

func TestVMIComparisonOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := VMIComparison(testConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "VMI / average LDV") {
		t.Errorf("VMI output:\n%s", buf.String())
	}
}

func TestAblations(t *testing.T) {
	cfg := testConfig()
	var buf bytes.Buffer
	if err := AblationTemporalPruning(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if err := AblationDedup(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if err := AblationTableGranularity(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"temporal pruning", "duplicate-suppression", "whole-table blowup"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q:\n%s", want, out)
		}
	}
}

// TestDedupAblationShowsDuplication: repeated selects re-read tuple
// versions that are already relevant, and the audit counts the copies the
// duplicate-suppression table kept out of the package.
func TestDedupAblationShowsDuplication(t *testing.T) {
	cfg := testConfig()
	cfg.Selects = 4
	q, _ := tpch.QueryByID(cfg.TPCH(), "Q1-1")
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st StepTimes
	app := workloadApp(cfg.workload(q), &st, false)
	aud, err := ldv.Audit(m, []ldv.App{app})
	if err != nil {
		t.Fatal(err)
	}
	if aud.RelevantTupleCount() == 0 || aud.DuplicateTupleCount() == 0 {
		t.Fatalf("four selects stored %d tuples and suppressed %d re-reads, want both above zero",
			aud.RelevantTupleCount(), aud.DuplicateTupleCount())
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	for _, name := range ExperimentNames() {
		if exps[name] == nil {
			t.Errorf("experiment %s not registered", name)
		}
	}
	if len(exps) != len(ExperimentNames()) {
		t.Error("registry and name list out of sync")
	}
}

func TestFig8Formatting(t *testing.T) {
	// Exercise the fig8 table driver with a stub measurer (the real
	// Fig8a/Fig8b wrappers differ only in what they measure).
	var buf bytes.Buffer
	calls := 0
	err := fig8(testConfig(), &buf, []System{SysPlain, SysSE}, func(sys System, q tpch.Query) (time.Duration, error) {
		calls++
		return time.Duration(calls) * time.Millisecond, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 18*2 {
		t.Fatalf("measure calls = %d", calls)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 19 { // header + 18 queries
		t.Fatalf("fig8 lines = %d", len(lines))
	}
}

func TestFig8aSingleQuery(t *testing.T) {
	// One real Fig8a-style measurement end to end (select step only).
	cfg := testConfig()
	cfg.Inserts, cfg.Updates = 0, 0
	q, _ := tpch.QueryByID(cfg.TPCH(), "Q3-2")
	out, err := RunAudit(cfg, q, SysSI)
	if err != nil {
		t.Fatal(err)
	}
	if out.Steps.SelectMean() <= 0 {
		t.Fatal("no select timing recorded")
	}
	if out.Steps.Inserts != 0 || out.Steps.Updates != 0 {
		t.Fatal("select-only run must not time inserts/updates")
	}
}
