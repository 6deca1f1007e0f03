package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/planner"
)

// toyConfig shrinks every workload and probe to a fraction of a second; the
// code paths are the ones the CLI runs.
func toyConfig(outDir string) Config {
	params := planner.DefaultParams()
	params.PopulationSize, params.Generations = 120, 15
	return Config{
		Seed:            7,
		Seconds:         0.8,
		OutDir:          outDir,
		Warmup:          0.1,
		SetupReps:       2,
		ServeRate:       100,
		ReplanVariants:  6,
		RecoverFinished: 60,
		RecoverPending:  20,
		PlanParams:      params,
		ProbeTasks:      40,
		ProbeIters:      200,
	}
}

func names(decls []MetricDecl) []string {
	out := make([]string, len(decls))
	for i, d := range decls {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs all five workloads, untraced and traced, and the probes at
// toy scale, and checks the output schema: every run emits exactly the
// declared metrics with the declared units, passes its correctness checks,
// and the traced pass leaves a trace file and a budget that adds up.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short mode")
	}
	outDir := filepath.Join("out", "smoke")
	defer os.RemoveAll(outDir)
	for _, traced := range []bool{false, true} {
		decls := endToEnd
		if traced {
			decls = perLayer
		}
		for _, name := range workloadNames {
			cfg := toyConfig(outDir)
			cfg.Traced = traced
			t0 := time.Now()
			res, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			t.Logf("%s traced=%v: %d ops in %.1fs", name, traced, res.Attempted, time.Since(t0).Seconds())
			if !res.correct() || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", name, traced, res.Failed, res.Attempted, res.Errors)
			}
			got := make([]string, 0, len(res.Metrics))
			for k := range res.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if want := names(decls); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", name, traced, got, want)
			}
			for _, d := range decls {
				m := res.Metrics[d.Name]
				if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s = %v %q, want a finite value in %q", name, d.Name, m.Value, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s %s = %v: an end-to-end metric is never 0", name, d.Name, m.Value)
				}
			}

			// The result line holds exactly the four keys of the contract.
			line, err := resultLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("result line has keys %v", keys)
			}

			if !traced {
				continue
			}
			if _, err := os.Stat(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
				t.Errorf("%s: no trace file: %v", name, err)
			}
			sum := 0.0
			for _, r := range res.Budget {
				sum += r.Ms
			}
			if len(res.Budget) == 0 || math.Abs(sum-res.BudgetMs) > 1e-6*res.BudgetMs {
				t.Errorf("%s: budget rows sum to %g ms, median client latency is %g ms", name, sum, res.BudgetMs)
			}
		}
	}
}

// TestBenchmarkJSON keeps the root BENCHMARK.json and the harness from
// drifting: same workloads, same metrics with the same units, directions and
// bounds, same window length.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []MetricDecl `json:"end_to_end"`
		PerLayer []MetricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the suite's default window is %d", decl.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", decl.Paths)
	}
	var got []string
	for _, w := range decl.Workloads {
		got = append(got, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(got, workloadNames) {
		t.Errorf("workloads = %v, want %v", got, workloadNames)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, want %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness's declarations")
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the set-up metric is declared as %+v", endToEnd[0])
	}
}

// TestCompare checks the verdicts of the compare subcommand on synthetic
// result files.
func TestCompare(t *testing.T) {
	file := func(scale float64) ResultFile {
		var f ResultFile
		for _, w := range workloadNames {
			for i := 0; i < 5; i++ {
				r := &RunResult{Workload: w, Attempted: 1000, Metrics: map[string]Metric{}}
				for _, d := range endToEnd {
					v := 100 + float64(i) // spread 0.03, inside every bound
					if d.Name == "latency_p50_ms" {
						v *= scale
					}
					r.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
				}
				f.Runs = append(f.Runs, r)
			}
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f ResultFile) string {
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", file(1)), write("same.json", file(1)), write("slow.json", file(1.4))
	if rc := compareCmd([]string{a, same}); rc != 0 {
		t.Errorf("comparing a result with itself: exit %d, want 0", rc)
	}
	if rc := compareCmd([]string{a, slow}); rc != 1 {
		t.Errorf("latency 40%% up against a 25%% bound: exit %d, want 1", rc)
	}
	d := MetricDecl{Name: "latency_p50_ms", Better: "lower", Bound: 0.25}
	noisy := []float64{40, 70, 100, 130, 160}
	if v := verdict(d, noisy, []float64{50, 80, 110, 140, 170}); v != "unresolved" {
		t.Errorf("overlapping noisy sides: %s, want unresolved", v)
	}
	if v := verdict(d, noisy, []float64{10, 15, 20, 25, 30}); v != "ok" {
		t.Errorf("every run of B better than every run of A: %s, want ok", v)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
}
