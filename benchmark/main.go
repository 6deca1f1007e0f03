// Command benchmark is the repo's benchmark: five workloads from HTTP byte
// to fsync, with end-to-end metrics from an untraced run and per-layer
// metrics from a traced one. See README.md for what each workload isolates
// and how every metric is defined.
//
//	go run -C benchmark . --workload NAME --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of output is the result JSON
//	go run -C benchmark . [--seed N] [--runs K]
//	    every workload untraced (K seeds each) and traced, each run in its
//	    own child process; prints the table and writes out/result.json
//	go run -C benchmark . compare A.json B.json
//	    two result files, metric by metric, against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:])
	}
	cfg := defaultConfig()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload and print its result JSON as the last line")
	trace := fs.Int("trace", 0, "1: the traced pass (per-layer metrics); 0: the untraced run (end-to-end metrics)")
	runs := fs.Int("runs", 1, "suite only: untraced runs per workload, at seeds seed, seed+1, ...")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "every random choice of the generator derives from it")
	fs.Float64Var(&cfg.Seconds, "seconds", cfg.Seconds, "length of the timed window")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Traced = *trace != 0
	if *workload == "" {
		return suite(cfg, *runs)
	}
	res, err := runWorkload(*workload, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(res)
	line, err := resultLine(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

// resultLine is the last line of a single run's output: one JSON object with
// exactly these four keys.
func resultLine(r *RunResult) ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.Metrics})
}

// failedShareBound is absolute: the known P3DR "preconditions unmet" flake
// fails a task in some ten thousand, and its jitter must not read as a
// regression.
const failedShareBound = 0.001

func (r *RunResult) correct() bool {
	return float64(r.Failed) <= failedShareBound*float64(r.Attempted)
}

func dispatch(name string, cfg Config, tr *tracer) (*outcome, error) {
	switch name {
	case wEnactSat:
		return runEnactSat(cfg, tr)
	case wServeOpen:
		return runServeOpen(cfg, tr)
	case wPlanCold:
		return runPlanCold(cfg, tr != nil)
	case wReplanMix:
		return runReplanMix(cfg, tr)
	case wRecoverFile:
		return runRecoverFile(cfg, tr)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// runWorkload is one run: untraced it yields the end-to-end metrics; traced
// it yields the per-layer metrics from a half-length traced window, the
// probes, and a quarter-length untraced window the tracing overhead is
// measured against. It leaves the full result in out/run-<workload>-t<0|1>.json.
func runWorkload(name string, cfg Config) (*RunResult, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	res := &RunResult{Workload: name, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Traced}
	warmCPU(seconds(cfg.Warmup))
	var out *outcome
	if !cfg.Traced {
		o, err := dispatch(name, cfg, nil)
		if err != nil {
			return nil, err
		}
		out = o
		res.Metrics = endToEndOf(out).export(endToEnd)
	} else {
		ref := cfg
		ref.Seconds, ref.Warmup, ref.SetupReps = cfg.Seconds/4, cfg.Warmup/2, 1
		base, err := dispatch(name, ref, nil)
		if err != nil {
			return nil, err
		}
		half := cfg
		half.Seconds, half.SetupReps = cfg.Seconds/2, 1
		tr := &tracer{}
		o, err := dispatch(name, half, tr)
		if err != nil {
			return nil, err
		}
		out = o
		coord, err := runProbes(cfg, out.layer)
		if err != nil {
			return nil, err
		}
		m := out.layer
		if ref := endToEndOf(base)["goodput_per_s"]; ref > 0 {
			m["trace.overhead_ratio"] = endToEndOf(out)["goodput_per_s"] / ref
		}
		if run := m["engine.run_ms_p50"]; run > 0 {
			m["engine.run_minus_coord_us"] = run*1000 - m["coordination.enact_us_p50"]
		}
		rows, med := out.budget, median(out.latency)
		if out.ops != nil {
			rows, med = out.tr.budget(out.ops, coord)
		}
		res.Budget, m["trace.unattributed_share"] = closeBudget(rows, med)
		res.BudgetMs = med
		if err := writeTrace(filepath.Join(cfg.OutDir, "trace-"+name+".json"), out.spans); err != nil {
			return nil, err
		}
		res.Metrics = m.export(perLayer)
	}
	res.Attempted = max(out.attempted, 1)
	res.Failed = len(out.errs)
	res.Errors = out.errs[:min(len(out.errs), 3)]
	res.Info = out.info
	res.Info["latency_samples"] = len(out.latency)
	res.Info["sample_series"] = sampleSeries(out)
	raw, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(runFile(cfg, name), raw, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// traceFlag is the value of --trace for cfg.
func traceFlag(cfg Config) int {
	if cfg.Traced {
		return 1
	}
	return 0
}

// runFile is where one run of a workload leaves its full result.
func runFile(cfg Config, name string) string {
	return filepath.Join(cfg.OutDir, fmt.Sprintf("run-%s-t%d.json", name, traceFlag(cfg)))
}

// printResult prints every metric as `workload metric value unit`, then what
// else the run found out.
func printResult(r *RunResult) {
	decls, pass := endToEnd, "untraced"
	if r.Traced {
		decls, pass = perLayer, "traced"
	}
	fmt.Printf("%s run seed %d window %gs %s\n", r.Workload, r.Seed, r.Seconds, pass)
	for _, d := range decls {
		fmt.Printf("%s %s %.6g %s\n", r.Workload, d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	for _, k := range sortedKeys(r.Info) {
		if k != "sample_series" { // kept in the run file; too long for a line
			fmt.Printf("%s info %s %v\n", r.Workload, k, r.Info[k])
		}
	}
	fmt.Printf("%s attempted %d failed %d failed_share %.6f\n", r.Workload, r.Attempted, r.Failed,
		float64(r.Failed)/float64(r.Attempted))
	for _, e := range r.Errors {
		fmt.Printf("%s error %s\n", r.Workload, e)
	}
	if len(r.Budget) > 0 {
		printBudget(r.Workload, r.Budget, r.BudgetMs)
	}
}
