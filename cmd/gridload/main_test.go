package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/load"
)

// runToBytes runs the CLI with args into a pipe and returns stdout.
func runToBytes(t *testing.T, args ...string) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.Bytes()
	}()
	runErr := run(args, w)
	w.Close()
	out := <-done
	r.Close()
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	return out
}

// TestSimByteIdentical is the CLI half of the reproducibility criterion:
// identical flags produce identical bytes.
func TestSimByteIdentical(t *testing.T) {
	args := []string{"-mode", "sim", "-seed", "7", "-tenants", "a:3,b:1,c:1", "-n", "500"}
	first := runToBytes(t, args...)
	second := runToBytes(t, args...)
	if !bytes.Equal(first, second) {
		t.Fatal("two identical sim invocations produced different output")
	}
	var report load.Report
	if err := json.Unmarshal(first, &report); err != nil {
		t.Fatalf("output is not a JSON report: %v", err)
	}
	if report.Completed != 500 || len(report.Tenants) != 3 {
		t.Fatalf("report = %+v", report)
	}
}

func TestBadFlags(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for _, args := range [][]string{
		{"-mode", "warp"},
		{"-tenants", "nope"},
		{"-pattern", "square", "-mode", "sim"},
	} {
		if err := run(args, null); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestCostMixTaskCount pins how -n reaches the costmix scenario: absent it
// means the scenario's own default, and an explicit value is taken as given
// — including 1000, the fairness default.
func TestCostMixTaskCount(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-scenario", "costmix"}, 200},
		{[]string{"-scenario", "costmix", "-n", "50"}, 50},
		{[]string{"-scenario", "costmix", "-n", "1000"}, 1000},
	} {
		var report load.CostMixReport
		if err := json.Unmarshal(runToBytes(t, tc.args...), &report); err != nil {
			t.Fatalf("run(%v) output is not a costmix report: %v", tc.args, err)
		}
		if report.Spec.Tasks != tc.want {
			t.Errorf("run(%v) ran %d tasks per tenant, want %d", tc.args, report.Spec.Tasks, tc.want)
		}
	}
}
